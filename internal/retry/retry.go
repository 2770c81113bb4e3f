// Package retry holds the backoff schedule and the Retry-After rule shared
// by the repository's retrying clients: the experiment-service client
// (internal/serve) and the fabric coordinator's dispatch loop
// (internal/fabric).
package retry

import (
	"math"
	"time"
)

// DefaultCap bounds a backoff when the caller sets no cap of its own.
const DefaultCap = 10 * time.Second

// Ceiling returns the exponential backoff ceiling before the given retry
// attempt (1 or more): base doubled once per earlier retry, capped at limit,
// which must be positive. It cannot overflow: any base or attempt count that
// would pass the cap returns the cap. A non-positive base means no backoff
// and returns 0. Callers draw their jittered delay below the ceiling.
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

// Advised returns the wait before a retry: a server's positive Retry-After
// advice overrides the computed delay, clamped to limit, so a peer cannot
// park a retry past the cap; without advice the computed delay stands.
func Advised(computed, advice, limit time.Duration) time.Duration {
	if advice > 0 {
		return min(advice, limit)
	}
	return computed
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
