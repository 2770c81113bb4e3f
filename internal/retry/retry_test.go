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

// TestAdvisedClampsEveryAdvice: Retry-After advice of 0, 1 s, 1 h and 1e12 s,
// converted from seconds and applied over any computed delay, is never
// negative and never above the cap; positive advice overrides the computed
// delay, and no advice leaves it.
func TestAdvisedClampsEveryAdvice(t *testing.T) {
	for _, sec := range []float64{0, 1, 3600, 1e12, -5, math.NaN(), math.Inf(1)} {
		for _, limit := range []time.Duration{time.Millisecond, DefaultCap, time.Hour, math.MaxInt64} {
			for _, computed := range []time.Duration{0, limit / 3, limit} { // drawn below the cap
				advice := Seconds(sec)
				got := Advised(computed, advice, limit)
				if got < 0 || got > limit {
					t.Fatalf("advice %gs, cap %v, computed %v: delay %v outside [0, %v]", sec, limit, computed, got, limit)
				}
				want := computed
				if sec > 0 {
					want = min(advice, limit)
				}
				if got != want {
					t.Fatalf("advice %gs, cap %v, computed %v: delay %v, want %v", sec, limit, computed, got, want)
				}
			}
		}
	}
}

func TestSecondsSaturates(t *testing.T) {
	for _, c := range []struct {
		sec  float64
		want time.Duration
	}{
		{0, 0}, {-1, 0}, {math.NaN(), 0}, {1, time.Second}, {0.25, 250 * time.Millisecond},
		{3600, time.Hour}, {1e12, math.MaxInt64}, {math.Inf(1), math.MaxInt64},
	} {
		if got := Seconds(c.sec); got != c.want {
			t.Errorf("Seconds(%g) = %v, want %v", c.sec, got, c.want)
		}
	}
}
