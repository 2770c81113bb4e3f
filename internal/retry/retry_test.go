package retry

import (
	"math"
	"testing"
	"time"
)

// TestCeilingNeverOverflows sweeps attempts 1-64 over extreme bases and
// caps: the ceiling is never negative, never above the cap, and doubles
// exactly while it stays below the cap.
func TestCeilingNeverOverflows(t *testing.T) {
	bases := []time.Duration{1, time.Millisecond, 200 * time.Millisecond, time.Hour,
		math.MaxInt64 / 3, math.MaxInt64/2 + 1, math.MaxInt64}
	limits := []time.Duration{1, time.Second, DefaultCap, math.MaxInt64}
	for _, base := range bases {
		for _, limit := range limits {
			for attempt := 1; attempt <= 64; attempt++ {
				got := Ceiling(base, limit, attempt)
				if got < 0 || got > limit {
					t.Fatalf("Ceiling(%d, %d, %d) = %d, outside [0, %d]", base, limit, attempt, got, limit)
				}
				if exact := float64(base) * math.Exp2(float64(attempt-1)); exact < float64(limit) && got != base<<(attempt-1) {
					t.Fatalf("Ceiling(%d, %d, %d) = %d, want %d", base, limit, attempt, got, base<<(attempt-1))
				}
			}
		}
	}
}

func TestCeilingWithoutBaseIsZero(t *testing.T) {
	for _, attempt := range []int{1, 2, 64} {
		if got := Ceiling(0, time.Second, attempt); got != 0 {
			t.Fatalf("Ceiling(0, 1s, %d) = %v, want 0", attempt, got)
		}
	}
}
