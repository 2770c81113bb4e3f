package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"dylect/internal/harness"
)

// FuzzRunRequest: no /v1/run body panics the service; every reply is a 200,
// 400, 429 or 503 whose body decodes as a RunResponse or as an
// ErrorResponse with a code; an accepted body re-encodes to the same
// RunRequest; and a request whose timeoutMS is absent or clamped to the
// maximum never runs past an expired deadline. Each input gets a fresh
// server, so no cached cell hides a deadline, and its runner dispatches to a
// stub executor, so nothing simulates.
func FuzzRunRequest(f *testing.F) {
	f.Add([]byte(`{"experiments":["fig4"]}`))
	f.Add([]byte(`{"experiments":["fig18","table1"],"client":"alice","timeoutMS":60000}`))
	f.Add([]byte(`{"experiments":["fig4"],"timeoutMS":10000000000000}`))
	f.Add([]byte(`{"experiments":["fig4"],"timeoutMS":4611686018427387904}`))
	f.Add([]byte(`{"experiments":["fig4"],"timeoutMS":9223372036854775807}`))
	f.Add([]byte(`{"experiments":["fig4"],"timeoutMS":-5}`))
	f.Add([]byte(`{"experiments":["nope"]}`))
	f.Add([]byte(`{"experiments":[]}`))
	f.Add([]byte(`{"experiments":7}`))
	f.Add([]byte(``))
	const maxTimeout = 2 * time.Minute
	f.Fuzz(func(t *testing.T, body []byte) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s := New(Options{Config: testConfig(), Jobs: 2, DefaultTimeout: time.Minute, MaxTimeout: maxTimeout})
		s.Runner().SetRemoteExecutor(func(context.Context, harness.CellSpec) ([]byte, error) {
			return []byte(`{"result":{}}`), nil
		})
		s.Start(ctx)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Code == "" {
				t.Fatalf("status %d with a body that is not an error reply: %q", rec.Code, rec.Body)
			}
			return
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		var resp RunResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body is not a RunResponse: %v", err)
		}
		var req RunRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for an undecodable body %q: %v", body, err)
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var back RunRequest
		if err := json.Unmarshal(again, &back); err != nil || !reflect.DeepEqual(back, req) {
			t.Fatalf("accepted request %+v re-encodes as %s (%+v, %v)", req, again, back, err)
		}
		if req.TimeoutMS > 0 && req.TimeoutMS < maxTimeout.Milliseconds() {
			return // a short deadline may legitimately expire
		}
		for _, e := range resp.Experiments {
			if e.Code == harness.CellErrorCodeName(harness.ErrCanceled) {
				t.Fatalf("timeoutMS %d ran %s past an expired deadline: %s", req.TimeoutMS, e.Name, e.Error)
			}
		}
	})
}
