package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestClientBackoffRespectsDeadline: when the server's Retry-After cooldown
// cannot finish before the request deadline, the client surfaces the
// deadline immediately instead of sleeping through the remaining budget and
// failing later anyway. The client sleeps with the real retry.Sleep, which
// owns the deadline check; the elapsed-time bound proves nothing was slept.
func TestClientBackoffRespectsDeadline(t *testing.T) {
	probe := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusTooManyRequests, CodeQueueFull, "busy", 30*time.Second)
	}))
	defer probe.Close()

	c := NewClient(probe.URL, 7)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()

	start := time.Now()
	_, err := c.Run(ctx, RunRequest{Experiments: []string{"table3"}})
	if err == nil {
		t.Fatal("Run succeeded against an always-429 endpoint")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// Immediately means before the deadline, not after riding it out.
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("took %v to surface a hopeless deadline", elapsed)
	}
}

// TestClientBackoffStillSleepsWithinDeadline: a cooldown that does fit the
// deadline is slept, not preempted — the deadline guard must not turn every
// deadlined request into an instant failure.
func TestClientBackoffStillSleepsWithinDeadline(t *testing.T) {
	first := true
	probe := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first {
			first = false
			WriteError(w, http.StatusTooManyRequests, CodeQueueFull, "busy", 1*time.Second)
			return
		}
		writeJSON(w, http.StatusOK, RunResponse{})
	}))
	defer probe.Close()

	c := NewClient(probe.URL, 7)
	var slept []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if _, err := c.Run(ctx, RunRequest{Experiments: []string{"table3"}}); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] != time.Second {
		t.Fatalf("slept %v, want exactly the advertised 1s", slept)
	}
}
