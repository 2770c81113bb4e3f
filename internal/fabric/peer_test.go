package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"dylect/internal/cellstore"
	"dylect/internal/harness"
	"dylect/internal/serve"
	"dylect/internal/system"
)

// badWorkerURLs are addresses no dispatch can reach; each must be refused
// wherever a worker URL enters the coordinator.
var badWorkerURLs = []string{"", " http://x", "::", "not a url", "ftp://x", "http://", "http:///path", "//x:1", "x:1"}

// ringMembers lists the ring's members in failover order.
func ringMembers(c *Coordinator) []string { return c.ring.Replicas("probe", c.ring.Size()) }

// postMember drives the join or leave handler in-process.
func postMember(c *Coordinator, join bool, body []byte) *httptest.ResponseRecorder {
	path := LeavePath
	if join {
		path = JoinPath
	}
	rec := httptest.NewRecorder()
	c.handleMember(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)), join)
	return rec
}

func memberBody(worker string) []byte {
	body, _ := json.Marshal(MemberRequest{Worker: worker})
	return body
}

// oversized is a well-formed JSON body one byte past the decode bound.
func oversized(field string) []byte {
	return []byte(`{"` + field + `":"` + strings.Repeat("x", serve.MaxRequestBytes) + `"}`)
}

func TestCheckWorkerURL(t *testing.T) {
	for _, ok := range []string{"http://10.0.0.1:8344", "https://w.example", "http://[::1]:80", "http://w/base"} {
		if err := CheckWorkerURL(ok); err != nil {
			t.Errorf("CheckWorkerURL(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range badWorkerURLs {
		if err := CheckWorkerURL(bad); err == nil {
			t.Errorf("CheckWorkerURL(%q) accepted", bad)
		}
	}
}

// TestPeerInputValidated: a bad seed never joins the ring, a bad join or
// leave is answered 400 with the ring unchanged, and an oversized body is
// refused by every peer-facing decoder.
func TestPeerInputValidated(t *testing.T) {
	const good = "http://10.0.0.1:8344"
	c, met := newCoordinator(append([]string{good}, badWorkerURLs...), nil)
	if got := ringMembers(c); !slices.Equal(got, []string{good}) {
		t.Fatalf("seeded ring = %q, want only %q", got, good)
	}
	for _, join := range []bool{true, false} {
		for _, bad := range badWorkerURLs {
			rec := postMember(c, join, memberBody(bad))
			var er serve.ErrorResponse
			if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &er) != nil || er.Code != serve.CodeBadRequest {
				t.Errorf("join=%v %q: status %d body %q, want 400 %s", join, bad, rec.Code, rec.Body, serve.CodeBadRequest)
			}
		}
		if rec := postMember(c, join, oversized("worker")); rec.Code != http.StatusBadRequest {
			t.Errorf("join=%v oversized body: status %d, want 400", join, rec.Code)
		}
		if got := ringMembers(c); !slices.Equal(got, []string{good}) || met.RingSize.Value() != 1 {
			t.Fatalf("join=%v: ring = %q (gauge %.0f) after bad requests, want only %q", join, got, met.RingSize.Value(), good)
		}
	}
	if rec := postMember(c, true, memberBody("http://10.0.0.2:8344")); rec.Code != http.StatusOK || c.RingSize() != 2 {
		t.Fatalf("good join: status %d, ring %d", rec.Code, c.RingSize())
	}

	w := NewWorker(WorkerOptions{Runner: harness.NewRunner(microCfg()), ConfigHash: "h", Schema: "s"})
	for path, handle := range map[string]http.HandlerFunc{CellPath: w.handleCell, VerifyPath: w.handleVerify} {
		rec := httptest.NewRecorder()
		handle(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(oversized("configHash"))))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "too large") {
			t.Errorf("%s oversized body: status %d body %q, want 400 naming the size", path, rec.Code, rec.Body)
		}
	}
}

// TestHedgeDelayMatchesSortReference: the p95 hedge delay equals the
// copy-and-sort.Slice computation on random windows of 8-64 samples, clamps
// included, and allocates nothing.
func TestHedgeDelayMatchesSortReference(t *testing.T) {
	c := New(Config{HedgeMin: 50 * time.Microsecond, HedgeMax: 900 * time.Microsecond})
	ref := func(window []time.Duration) time.Duration {
		sorted := make([]time.Duration, len(window))
		copy(sorted, window)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		p95 := sorted[(len(sorted)*95+99)/100-1]
		return min(max(p95, c.cfg.HedgeMin), c.cfg.HedgeMax)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		c.window = c.window[:0]
		for n := 8 + rng.Intn(57); n > 0; n-- {
			c.window = append(c.window, time.Duration(rng.Int63n(int64(time.Millisecond))))
		}
		want := ref(c.window)
		before := slices.Clone(c.window)
		if got := c.hedgeDelay(); got != want {
			t.Fatalf("window %v: hedgeDelay %v, want %v", before, got, want)
		}
		if !slices.Equal(c.window, before) {
			t.Fatal("hedgeDelay reordered the latency window")
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { c.hedgeDelay() }); allocs != 0 {
		t.Fatalf("hedgeDelay allocates %.1f times per call", allocs)
	}
}

// FuzzMemberRequest: no join or leave body panics the handler, a refused
// one leaves the ring as it was, and the ring only ever holds URLs that pass
// CheckWorkerURL and that a dispatch request can be built for.
func FuzzMemberRequest(f *testing.F) {
	for _, u := range append([]string{"http://10.0.0.9:8344", "https://w.example/base"}, badWorkerURLs...) {
		f.Add(true, memberBody(u))
		f.Add(false, memberBody(u))
	}
	f.Add(true, []byte(`{"worker":"http://10.0.0.1:8344"}`)) // a seeded member
	f.Add(false, []byte(`{"worker":"http://10.0.0.1:8344"}`))
	f.Add(true, []byte(`{`))
	f.Add(true, []byte(`{"worker":7}`))
	f.Add(true, []byte(`{"worker":"http://a\u0000b"}`))
	f.Fuzz(func(t *testing.T, join bool, body []byte) {
		c, _ := newCoordinator([]string{"http://10.0.0.1:8344"}, nil)
		before := ringMembers(c)
		rec := postMember(c, join, body)
		if rec.Code != http.StatusOK {
			var er serve.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("status %d with a body that is not an error reply: %q", rec.Code, rec.Body)
			}
			if got := ringMembers(c); !slices.Equal(got, before) {
				t.Fatalf("refused request changed the ring: %q -> %q", before, got)
			}
		}
		for _, m := range ringMembers(c) {
			if err := CheckWorkerURL(m); err != nil {
				t.Fatalf("ring holds %q: %v", m, err)
			}
			if _, err := http.NewRequest(http.MethodPost, m+CellPath, nil); err != nil {
				t.Fatalf("ring member %q cannot be dispatched to: %v", m, err)
			}
		}
	})
}

// FuzzCellRequest: no /fabric/v1/cell body panics the worker, every error
// reply parses as a serve.ErrorResponse, and a 200 comes only for a body
// pinning the worker's config hash and schema, carrying an envelope that
// verifies under the spec's store key. The worker's runner dispatches to a
// stub executor, so nothing simulates.
func FuzzCellRequest(f *testing.F) {
	cfg := microCfg()
	hash := harness.ConfigHash(cfg)
	req := func(spec harness.CellSpec, hash, schema string) []byte {
		body, _ := json.Marshal(CellRequest{Spec: spec, ConfigHash: hash, Schema: schema})
		return body
	}
	f.Add(req(microSpec(), hash, system.SchemaVersion))
	f.Add(req(microSpec(), "other", system.SchemaVersion))
	f.Add(req(microSpec(), hash, "other"))
	f.Add(req(harness.CellSpec{Workload: "omnetpp", Design: "warp", Setting: "high"}, hash, system.SchemaVersion))
	f.Add(req(harness.CellSpec{Design: "tmcc", Setting: "high"}, hash, system.SchemaVersion))
	f.Add(req(harness.CellSpec{Workload: "omnetpp", Design: "dylect", Setting: "low", Ranks: -1, Granularity: 3}, hash, system.SchemaVersion))
	f.Add([]byte(`{"spec":{"workload":"x<>& ","design":"nocomp","setting":"none"},"configHash":"` + hash + `","schema":"` + system.SchemaVersion + `"}`))
	f.Add([]byte(`{"spec":7}`))
	f.Add([]byte(``))
	stub := func(context.Context, harness.CellSpec) ([]byte, error) { return []byte(`{"result":{}}`), nil }
	f.Fuzz(func(t *testing.T, body []byte) {
		r := harness.NewRunner(cfg)
		r.SetRemoteExecutor(stub)
		w := NewWorker(WorkerOptions{Runner: r, ConfigHash: hash, Schema: system.SchemaVersion})
		rec := httptest.NewRecorder()
		w.handleCell(rec, httptest.NewRequest(http.MethodPost, CellPath, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			var er serve.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("status %d with a body that is not an error reply: %q", rec.Code, rec.Body)
			}
			return
		}
		var cr CellRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&cr); err != nil {
			t.Fatalf("200 for an undecodable body %q: %v", body, err)
		}
		if cr.ConfigHash != hash || cr.Schema != system.SchemaVersion {
			t.Fatalf("200 for a body pinning config %q schema %q", cr.ConfigHash, cr.Schema)
		}
		key, err := harness.PayloadKey(hash, cr.Spec)
		if err != nil {
			t.Fatalf("200 for a spec with no store key: %v", err)
		}
		if _, err := cellstore.DecodeEnvelope(system.SchemaVersion, key, rec.Body.Bytes()); err != nil {
			t.Fatalf("200 body does not verify under %q: %v", key, err)
		}
	})
}
