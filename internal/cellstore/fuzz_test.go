package cellstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// FuzzDecodeEnvelope: no input makes DecodeEnvelope panic, and every
// payload it accepts re-encodes through EncodeEnvelope into an envelope
// that decodes to the same compacted payload. The corpus starts from a real
// Put record, that record damaged each way the corruption matrix damages
// it, and hand-built envelopes for the other quarantine reasons.
func FuzzDecodeEnvelope(f *testing.F) {
	const schema, key = "test/1", "victim"
	s, err := Open(Options{Dir: f.TempDir(), Schema: schema})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	path := s.recordPath(addrOf(key))
	put := func() []byte {
		if err := s.Put(key, payload(7)); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(put())
	for _, tc := range corruptions {
		put()
		tc.mutate(f, path)
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// envelope hand-builds a record whose checksum matches payload.
	envelope := func(format int, schema, key, payload string) []byte {
		var compact bytes.Buffer
		if err := json.Compact(&compact, []byte(payload)); err != nil {
			f.Fatal(err)
		}
		sum := sha256.Sum256(compact.Bytes())
		return []byte(fmt.Sprintf(`{"format":%d,"schema":%q,"key":%q,"sha256":"%s","payload":%s}`,
			format, schema, key, hex.EncodeToString(sum[:]), payload))
	}
	f.Add(envelope(formatVersion+1, schema, key, `{"a":1}`))       // format
	f.Add(envelope(formatVersion, schema, "other", `{"a":1}`))     // key
	f.Add(envelope(formatVersion, schema, key, `{"a": [1, 2.5]}`)) // whitespace to compact
	// HTML characters and U+2028 must pass through unescaped, or the checksum breaks.
	f.Add(envelope(formatVersion, schema, key, "{\"html\":\"<b>&amp;</b>\",\"sep\":\"\u2028\"}"))
	f.Add([]byte(`{"format":1,"schema":"test/1","key":"victim","sha256":"00","payload":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := DecodeEnvelope(schema, key, data)
		if err != nil {
			return
		}
		var want bytes.Buffer
		if err := json.Compact(&want, payload); err != nil {
			t.Fatalf("accepted payload %q does not compact: %v", payload, err)
		}
		env, err := EncodeEnvelope(schema, key, payload)
		if err != nil {
			t.Fatalf("accepted payload %q does not re-encode: %v", payload, err)
		}
		got, err := DecodeEnvelope(schema, key, env)
		if err != nil {
			t.Fatalf("re-encoded envelope %q rejected: %v", env, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("round trip gave payload %q, want %q", got, want.Bytes())
		}
	})
}

// refPayloadSum is payloadSum as it was before it learned to skip
// compaction: it compacts every payload before hashing it.
func refPayloadSum(payload []byte) (string, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, payload); err != nil {
		return "", err
	}
	h := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(h[:]), nil
}

// refEnvelope is the envelope as one flat struct, as it was before its
// head was split out.
type refEnvelope struct {
	Format  int             `json:"format"`
	Schema  string          `json:"schema"`
	Key     string          `json:"key"`
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

// refEncodeEnvelope is EncodeEnvelope as it was before it appended the
// payload to the encoded head: it compacts every payload and encodes the
// whole envelope.
func refEncodeEnvelope(schema, key string, payload []byte) ([]byte, error) {
	var compact bytes.Buffer
	if err := json.Compact(&compact, payload); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(compact.Bytes())
	env := refEnvelope{formatVersion, schema, key, hex.EncodeToString(sum[:]), compact.Bytes()}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(&env); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(out.Bytes(), []byte("\n")), nil
}

// refDecodeEnvelope is DecodeEnvelope's verification as it was before it
// learned to skip compaction and the second copy.
func refDecodeEnvelope(schema, wantKey string, data []byte) ([]byte, error) {
	var env refEnvelope
	if len(data) == 0 {
		return nil, fmt.Errorf("cellstore: envelope %s: zero-byte record", ReasonEmpty)
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("cellstore: envelope %s: envelope does not parse: %s", ReasonUnparsable, err)
	}
	if env.Format != formatVersion {
		return nil, fmt.Errorf("cellstore: envelope %s: record format %d, store speaks %d", ReasonFormat, env.Format, formatVersion)
	}
	if env.Schema != schema {
		return nil, fmt.Errorf("cellstore: envelope %s: record schema %q, store pinned to %q", ReasonSchema, env.Schema, schema)
	}
	sum, err := refPayloadSum(env.Payload)
	if err != nil {
		return nil, fmt.Errorf("cellstore: envelope %s: payload does not parse: %s", ReasonUnparsable, err)
	}
	if sum != env.SHA256 {
		return nil, fmt.Errorf("cellstore: envelope %s: payload hashes to %s, record claims %s", ReasonChecksum, sum[:12], clip(env.SHA256, 12))
	}
	if env.Key != wantKey {
		return nil, fmt.Errorf("cellstore: envelope %s: carries key %q, want %q", ReasonKey, env.Key, wantKey)
	}
	out := make([]byte, len(env.Payload))
	copy(out, env.Payload)
	return out, nil
}

// FuzzPayloadSum: hashing a payload as is when it is valid JSON with no
// whitespace byte gives the always-compacting reference's sum and error on
// every input; EncodeEnvelope accepts what the reference encoder does and
// returns its bytes, under a plain key and one that needs escaping; and
// DecodeEnvelope accepts, rejects and returns exactly what the reference
// verification does, both on the raw input as an envelope and on the input
// wrapped as the payload of an envelope the reference signed.
func FuzzPayloadSum(f *testing.F) {
	const schema, key = "test/1", "victim"
	for _, p := range []string{
		`{"a":1}`, `{"a": 1}`, "{\"a\":\n1}", "{\"a\":\t1}\r\n", ` {"a":1}`, `{"a":1} `,
		`{"s":"two words"}`, `{"s":"line\nbreak"}`, `{"s":"tab\tescaped"}`, `" "`,
		"{\"html\":\"<b>&amp;</b>\",\"sep\":\"\u2028\u2029\"}", `[1, 2.5e3, -0, true, null]`,
		`null`, `7`, `""`, ``, ` `, `{`, `{"a":}`, `{"a":1}x`, `{"a":1}{"b":2}`, "\"raw\ttab\"",
		`{"result":{"ipc":1.25,"name":"omnetpp/tmcc/high"},"metrics":{"samples":[]}}`,
		`{"formAt":""}`, "{\"a\":\r1}", "[1,\t2]",
	} {
		f.Add([]byte(p))
	}
	// An envelope with no payload, claiming the sum of zero bytes.
	empty := sha256.Sum256(nil)
	f.Add([]byte(`{"format":1,"schema":"test/1","key":"victim","sha256":"` + hex.EncodeToString(empty[:]) + `"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sum, err := payloadSum(data, json.Valid(data))
		want, wantErr := refPayloadSum(data)
		if sum != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("payloadSum(%q) = %q, %v; reference %q, %v", data, sum, err, want, wantErr)
		}
		for _, k := range []string{key, "a\"<&>\u2028\x01\\z"} {
			env, err := EncodeEnvelope(schema, k, data)
			ref, refErr := refEncodeEnvelope(schema, k, data)
			if (err == nil) != (refErr == nil) || !bytes.Equal(env, ref) {
				t.Fatalf("EncodeEnvelope(%q, %q) = %q, %v; reference %q, %v", k, data, env, err, ref, refErr)
			}
		}
		same := func(input []byte) {
			got, err := DecodeEnvelope(schema, key, input)
			ref, refErr := refDecodeEnvelope(schema, key, input)
			// A type error names the Go type decoded into.
			wantErr := strings.ReplaceAll(fmt.Sprint(refErr), "refEnvelope", "envelope")
			if fmt.Sprint(err) != wantErr || !bytes.Equal(got, ref) {
				t.Fatalf("DecodeEnvelope(%q) = %q, %v; reference %q, %v", input, got, err, ref, refErr)
			}
		}
		same(data)
		same([]byte(fmt.Sprintf(`{"format":1,"schema":%q,"key":%q,"sha256":%q,"payload":%s}`, schema, key, want, data)))
	})
}
