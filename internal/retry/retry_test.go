package retry

import (
	"context"
	"errors"
	"math"
	"strconv"
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

// TestDelayBounded sweeps attempts 1-64 over extreme bases and caps: with
// no advice the drawn delay is always in (0, ceiling], a cap of 0 means
// DefaultCap, and a non-positive base means no wait.
func TestDelayBounded(t *testing.T) {
	j := NewJitter(7)
	for _, base := range []time.Duration{-1, 0, 1, time.Millisecond, time.Hour, math.MaxInt64/2 + 1, math.MaxInt64} {
		for _, limit := range []time.Duration{0, 1, time.Millisecond, time.Second, math.MaxInt64} {
			capped := limit
			if capped <= 0 {
				capped = DefaultCap
			}
			for attempt := 1; attempt <= 64; attempt++ {
				ceil := Ceiling(base, capped, attempt)
				got := j.Delay(base, limit, attempt, 0)
				if base <= 0 {
					if got != 0 {
						t.Fatalf("base %v cap %v attempt %d: delay %v, want 0", base, limit, attempt, got)
					}
					continue
				}
				if got <= 0 || got > ceil {
					t.Fatalf("base %v cap %v attempt %d: delay %v outside (0, %v]", base, limit, attempt, got, ceil)
				}
			}
		}
	}
}

// TestAdvisedClampsEveryAdvice: Retry-After advice of 0, 1 s, 1 h and 1e12 s,
// NaN or negative, converted from seconds, is never negative and never above
// the cap. Positive advice overrides the draw; other advice is ignored and
// the draw stands.
func TestAdvisedClampsEveryAdvice(t *testing.T) {
	for _, sec := range []float64{0, 1, 3600, 1e12, -5, math.NaN(), math.Inf(1)} {
		for _, limit := range []time.Duration{time.Millisecond, DefaultCap, time.Hour, math.MaxInt64} {
			for _, base := range []time.Duration{1, limit / 3, limit} {
				advice := Seconds(sec)
				got := NewJitter(7).Delay(base, limit, 2, advice)
				want := NewJitter(7).Delay(base, limit, 2, 0) // the draw
				if sec > 0 {
					want = min(advice, limit)
				}
				if got != want || got <= 0 || got > limit {
					t.Fatalf("advice %gs, cap %v, base %v: delay %v, want %v in (0, %v]", sec, limit, base, got, want, limit)
				}
			}
		}
	}
}

// TestSleep: a wait that would outlive the deadline returns
// DeadlineExceeded at once, a canceled context returns its error, and a
// wait that fits is slept in full.
func TestSleep(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name      string
		ctx       func() (context.Context, context.CancelFunc)
		d         time.Duration
		want      error
		slept     time.Duration // at least
		fastUnder time.Duration // at most
	}{
		{"outlives deadline", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), time.Second)
		}, time.Hour, context.DeadlineExceeded, 0, 500 * time.Millisecond},
		{"canceled", func() (context.Context, context.CancelFunc) {
			return canceled, func() {}
		}, time.Hour, context.Canceled, 0, 500 * time.Millisecond},
		{"canceled, no wait", func() (context.Context, context.CancelFunc) {
			return canceled, func() {}
		}, 0, context.Canceled, 0, 500 * time.Millisecond},
		{"canceled mid-sleep", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(20*time.Millisecond, cancel)
			return ctx, cancel
		}, time.Hour, context.Canceled, 20 * time.Millisecond, 30 * time.Second},
		{"fits deadline", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), time.Hour)
		}, 20 * time.Millisecond, nil, 20 * time.Millisecond, time.Hour},
		{"no deadline", func() (context.Context, context.CancelFunc) {
			return context.Background(), func() {}
		}, 20 * time.Millisecond, nil, 20 * time.Millisecond, time.Hour},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := c.ctx()
			defer cancel()
			start := time.Now()
			err := Sleep(ctx, c.d)
			elapsed := time.Since(start)
			if !errors.Is(err, c.want) || (c.want == nil) != (err == nil) {
				t.Fatalf("Sleep(%v) = %v, want %v", c.d, err, c.want)
			}
			if elapsed < c.slept || elapsed > c.fastUnder {
				t.Fatalf("Sleep(%v) took %v, want in [%v, %v]", c.d, elapsed, c.slept, c.fastUnder)
			}
		})
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

// FuzzAdvice: no header or body makes Advice panic or return a negative
// wait; a positive header wins over any body; a number means the same wait
// as a header or as a body; and the wait never shrinks as the advice grows,
// so huge advice saturates instead of wrapping.
func FuzzAdvice(f *testing.F) {
	f.Add("3", 0.5)
	f.Add("", 2.5)
	f.Add("0.25", 1e300)
	f.Add("1e400", 1.0)
	f.Add("NaN", -1.0)
	f.Add("soon", 4.0)
	f.Add(".0000000001", 71.5)
	f.Fuzz(func(t *testing.T, header string, bodySec float64) {
		got := Advice(header, bodySec)
		if got < 0 {
			t.Fatalf("Advice(%q, %v) = %v, negative", header, bodySec, got)
		}
		if h := Advice(header, 0); h > 0 && got != h {
			t.Fatalf("Advice(%q, %v) = %v: the header's %v lost to the body", header, bodySec, got, h)
		} else if h == 0 && got != Advice("", bodySec) {
			t.Fatalf("Advice(%q, %v) = %v: an empty header's %v ignored the body", header, bodySec, got, Advice("", bodySec))
		}
		asHeader := Advice(strconv.FormatFloat(bodySec, 'g', -1, 64), 0)
		if asHeader != Advice("", bodySec) {
			t.Fatalf("%v seconds: header wait %v, body wait %v", bodySec, asHeader, Advice("", bodySec))
		}
		if bodySec > 0 && Advice("", 2*bodySec) < Advice("", bodySec) {
			t.Fatalf("doubling %v seconds shrank the wait", bodySec)
		}
		if bodySec >= math.MaxInt64/float64(time.Second) && Advice("", bodySec) != math.MaxInt64 {
			t.Fatalf("%v seconds did not saturate: %v", bodySec, Advice("", bodySec))
		}
	})
}
