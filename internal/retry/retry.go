// Package retry is the one retry policy of the repository: the
// experiment-service client (internal/serve) and the fabric coordinator's
// dispatch loop (internal/fabric) draw jittered waits from it, and the
// harness's transient-cell retries (internal/harness) wait its Ceiling. It
// holds the backoff schedule, its jitter draw, the Retry-After rule and the
// deadline-aware sleep.
package retry

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"
)

// DefaultCap bounds a backoff when the caller sets no cap of its own.
const DefaultCap = 10 * time.Second

// Ceiling returns the exponential backoff ceiling before the given retry
// attempt (1 or more): base doubled once per earlier retry, capped at limit,
// which must be positive. It cannot overflow: any base or attempt count that
// would pass the cap returns the cap. A non-positive base means no backoff
// and returns 0. Jitter.Delay draws the wait below the ceiling.
func Ceiling(base, limit time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	// base<<shift > limit exactly when base > limit>>shift, and the test
	// itself cannot overflow.
	if shift := attempt - 1; shift < 63 && base <= limit>>shift {
		return base << shift
	}
	return limit
}

// Jitter draws backoff delays from a seeded source, so tests reproduce
// their schedules. It is safe for concurrent use.
type Jitter struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewJitter returns a jitter source seeded from seed.
func NewJitter(seed int64) *Jitter {
	return &Jitter{rng: rand.New(rand.NewSource(seed))}
}

// Delay returns the wait before the given retry attempt (1 or more) under a
// cap of limit, or DefaultCap when limit is not positive. A peer's positive
// Retry-After advice overrides the draw, clamped to the cap, so no peer can
// park a retry past it. Otherwise the wait is full jitter: uniform in
// (0, Ceiling(base, limit, attempt)], which decorrelates callers rejected
// together so they do not return together. A non-positive base means no
// wait.
func (j *Jitter) Delay(base, limit time.Duration, attempt int, advice time.Duration) time.Duration {
	if limit <= 0 {
		limit = DefaultCap
	}
	if advice > 0 {
		return min(advice, limit)
	}
	ceil := Ceiling(base, limit, attempt)
	if ceil <= 0 {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return time.Duration(j.rng.Int63n(int64(ceil))) + 1
}

// Sleep waits d, or until ctx is done, when it returns ctx.Err(); a ctx
// already done returns at once, whatever d. A wait that would outlive ctx's
// deadline is a guaranteed failure, so Sleep returns
// context.DeadlineExceeded at once instead of sleeping through the
// remaining budget first.
func Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) < d {
		return fmt.Errorf("retry: %v backoff would outlive the deadline: %w", d, context.DeadlineExceeded)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Seconds converts a Retry-After advice in seconds to a duration. It clamps
// the seconds before converting, so advice too long for a time.Duration
// saturates instead of overflowing. Non-positive or NaN advice is 0: none.
func Seconds(sec float64) time.Duration {
	if !(sec > 0) {
		return 0
	}
	if ns := sec * float64(time.Second); ns < math.MaxInt64 {
		return time.Duration(ns)
	}
	return math.MaxInt64
}

// Advice reads a rejection's retry advice: the Retry-After header's wait
// when it is positive, else the error body's retryAfterSec. A malformed
// header parses as 0, and one under a nanosecond converts to 0, so both
// defer to the body; an overflowing one parses as +Inf and saturates like
// any advice too long for a time.Duration.
func Advice(header string, bodySec float64) time.Duration {
	sec, _ := strconv.ParseFloat(header, 64)
	if d := Seconds(sec); d > 0 {
		return d
	}
	return Seconds(bodySec)
}
