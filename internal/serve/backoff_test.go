package serve

import (
	"math"
	"testing"
	"time"
)

// TestClientBackoffBounded sweeps retry attempts 1-64 over extreme base and
// cap settings: the jittered delay is always in (0, cap].
func TestClientBackoffBounded(t *testing.T) {
	for _, base := range []time.Duration{0, 1, time.Millisecond, time.Hour, math.MaxInt64/2 + 1, math.MaxInt64} {
		for _, limit := range []time.Duration{0, time.Millisecond, time.Second, math.MaxInt64} {
			c := NewClient("http://127.0.0.1:0", 7)
			c.BaseBackoff, c.MaxBackoff = base, limit
			want := limit
			if want <= 0 {
				want = 10 * time.Second
			}
			for attempt := 1; attempt <= 64; attempt++ {
				if d := c.backoff(attempt, nil); d <= 0 || d > want {
					t.Fatalf("base %v cap %v attempt %d: backoff %v outside (0, %v]", base, limit, attempt, d, want)
				}
			}
		}
	}
}
