package fabric

import (
	"math"
	"testing"
	"time"

	"dylect/internal/retry"
)

// TestDispatchBackoffBounded sweeps retry attempts 1-64 over extreme
// -dispatch-backoff bases: drawing the delay never panics and never exceeds
// the shared cap, where an uncapped RetryBackoff<<(attempt-1) overflows.
func TestDispatchBackoffBounded(t *testing.T) {
	for _, base := range []time.Duration{1, time.Millisecond, 200 * time.Millisecond, time.Hour,
		math.MaxInt64/2 + 1, math.MaxInt64} {
		c := New(Config{RetryBackoff: base, Seed: 7})
		for attempt := 1; attempt <= 64; attempt++ {
			for draw := 0; draw < 4; draw++ {
				if d := c.delay(attempt, nil); d < 0 || d > retry.DefaultCap {
					t.Fatalf("base %v attempt %d: delay %v outside [0, %v]", base, attempt, d, retry.DefaultCap)
				}
			}
		}
	}
}

// TestDispatchRetryAfterClamped: a worker's Retry-After advice overrides the
// jittered delay but never past the shared cap, however long it is.
func TestDispatchRetryAfterClamped(t *testing.T) {
	c := New(Config{RetryBackoff: time.Millisecond, Seed: 7})
	for _, advice := range []time.Duration{time.Second, 120 * time.Second, retry.Seconds(1e12)} {
		got := c.delay(1, &DispatchError{Worker: "w", RetryAfter: advice})
		if want := min(advice, retry.DefaultCap); got != want {
			t.Fatalf("advice %v: delay %v, want %v", advice, got, want)
		}
	}
}
