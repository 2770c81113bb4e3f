// Package retry holds the backoff schedule shared by the repository's
// retrying clients: the experiment-service client (internal/serve) and the
// fabric coordinator's dispatch loop (internal/fabric).
package retry

import "time"

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
