package cellstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
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
