package serve

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"time"

	"dylect/internal/harness"
)

// The circuit breaker isolates (workload, design) classes whose cells fail
// deterministically — panics and watchdog timeouts — so a broken simulator
// path cannot burn the worker pool on every request that touches it. The
// service runs the shared runner with failure eviction on (failed cells are
// re-attempted by later requests); the breaker is what bounds those
// re-attempt storms: after Threshold consecutive hard failures the class
// opens, requests needing it are refused with CodeBreakerOpen, and after a
// cooldown one probe request is let through. A successful probe closes the
// class; a failed probe reopens it with the cooldown doubled (capped).
//
// Transient failures and cancellations are not evidence of a broken class —
// retry and deadlines own those — so they never trip the breaker; during a
// probe they merely return the class to the probe-eligible half-open state.

// BreakerConfig tunes the per-class circuit breaker.
type BreakerConfig struct {
	// Threshold is how many consecutive hard failures (panic or watchdog
	// timeout) open a class. <=0 defaults to 3.
	Threshold int
	// Cooldown is the initial open duration before a probe is allowed;
	// it doubles on every failed probe up to MaxCooldown. Defaults:
	// 5s / 2m.
	Cooldown    time.Duration
	MaxCooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.MaxCooldown <= 0 {
		c.MaxCooldown = 2 * time.Minute
	}
	return c
}

// Breaker states.
const (
	stateClosed = iota
	stateOpen
	stateHalfOpen
)

func stateName(s int) string {
	switch s {
	case stateOpen:
		return "open"
	case stateHalfOpen:
		return "half-open"
	}
	return "closed"
}

type breakerClass struct {
	state       int
	consecutive int
	cooldown    time.Duration
	openedAt    time.Time
	// probing marks a half-open class whose single probe is in flight;
	// further requests are refused until the probe settles.
	probing bool
	// tripped records that the class has ever opened, for stats.
	tripped bool
}

// Breaker is the per-class circuit breaker. Safe for concurrent use.
type Breaker struct {
	mu      sync.Mutex
	cfg     BreakerConfig
	classes map[string]*breakerClass
	// now is the clock; injectable so tests drive state transitions
	// without sleeping.
	now func() time.Time
	// onTransition, when set, is called under the breaker's lock with the
	// class and the state it just entered, once per state change. It must
	// be fast and must not call back into the breaker; the telemetry layer
	// counts transitions through it.
	onTransition func(class, to string)
}

// NewBreaker returns a breaker with the given config and clock. A nil clock
// uses wall time.
func NewBreaker(cfg BreakerConfig, now func() time.Time) *Breaker {
	if now == nil {
		now = time.Now
	}
	return &Breaker{cfg: cfg.withDefaults(), classes: map[string]*breakerClass{}, now: now}
}

// SetTransitionHook installs the state-transition hook (see onTransition).
func (b *Breaker) SetTransitionHook(fn func(class, to string)) {
	b.mu.Lock()
	b.onTransition = fn
	b.mu.Unlock()
}

// setStateLocked moves a class to state and fires the transition hook.
// Callers must hold b.mu and only call on an actual change.
func (b *Breaker) setStateLocked(c *breakerClass, class string, state int) {
	c.state = state
	if b.onTransition != nil {
		b.onTransition(class, stateName(state))
	}
}

// openCount reports how many classes are not closed (open or half-open).
func (b *Breaker) openCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, c := range b.classes {
		if c.state != stateClosed {
			n++
		}
	}
	return n
}

// ClassOf maps a harness cell key to its breaker class: the workload/design
// prefix. Settings and variants share a class — a panicking design is
// broken at every setting.
func ClassOf(cellKey string) string {
	parts := strings.SplitN(cellKey, "/", 3)
	if len(parts) < 2 {
		return cellKey
	}
	return parts[0] + "/" + parts[1]
}

// AllowAll atomically checks every class a request needs. It either admits
// the request through all of them — committing at most the probes that
// half-open classes require — or refuses with the longest remaining
// cooldown, committing nothing. The all-or-nothing contract matters: a
// probe committed for a request that is then refused on another class
// would leave the class stuck probing with no settlement ever coming.
func (b *Breaker) AllowAll(classes []string) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.now()

	// Pass 1: check without mutating.
	var wait time.Duration
	for _, class := range classes {
		c := b.classes[class]
		if c == nil {
			continue
		}
		switch c.state {
		case stateOpen:
			if remaining := c.cooldown - t.Sub(c.openedAt); remaining > 0 {
				if remaining > wait {
					wait = remaining
				}
			}
			// Cooldown elapsed: would transition to half-open and probe.
		case stateHalfOpen:
			if c.probing {
				if c.cooldown > wait {
					wait = c.cooldown
				}
			}
		}
	}
	if wait > 0 {
		return false, wait
	}

	// Pass 2: commit probes.
	for _, class := range classes {
		c := b.classes[class]
		if c == nil {
			continue
		}
		if c.state == stateOpen {
			b.setStateLocked(c, class, stateHalfOpen)
		}
		if c.state == stateHalfOpen {
			c.probing = true
		}
	}
	return true, 0
}

// Report feeds one settled cell into the breaker; the server's settlement
// hook on the shared runner calls it. Only hard failures — panics and
// watchdog timeouts — count toward opening; a success closes a probing
// class and resets its failure count; transient/canceled outcomes resolve a
// probe without judging the class.
func (b *Breaker) Report(cellKey string, err error) {
	class := ClassOf(cellKey)
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.classes[class]
	if c == nil {
		c = &breakerClass{cooldown: b.cfg.Cooldown}
		b.classes[class] = c
	}

	switch {
	case err == nil:
		if c.state == stateHalfOpen {
			// Probe succeeded: close and reset the backoff schedule.
			b.setStateLocked(c, class, stateClosed)
			c.cooldown = b.cfg.Cooldown
		}
		c.probing = false
		c.consecutive = 0

	case errors.Is(err, harness.ErrCellPanic) || errors.Is(err, harness.ErrCellTimeout):
		c.consecutive++
		switch c.state {
		case stateHalfOpen:
			// Probe failed: reopen with doubled cooldown.
			b.setStateLocked(c, class, stateOpen)
			c.probing = false
			c.openedAt = b.now()
			c.cooldown = min(c.cooldown*2, b.cfg.MaxCooldown)
			c.tripped = true
		case stateClosed:
			if c.consecutive >= b.cfg.Threshold {
				b.setStateLocked(c, class, stateOpen)
				c.openedAt = b.now()
				c.tripped = true
			}
		case stateOpen:
			// A straggler cell (in flight before the class opened)
			// failing hard is fresh evidence: restart the cooldown.
			c.openedAt = b.now()
		}

	default:
		// Transient or canceled: no verdict on the class, but a probe that
		// ended this way must free the half-open slot for the next probe.
		c.probing = false
	}
}

// ReleaseProbes frees the probing slot of every listed half-open class
// without judging it, so a probe whose request observed no fresh cell
// (fully cached plan) does not wedge the class. Classes that settled
// through Report are unaffected (their probing flag is already clear).
func (b *Breaker) ReleaseProbes(classes []string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, class := range classes {
		if c := b.classes[class]; c != nil && c.state == stateHalfOpen {
			c.probing = false
		}
	}
}

// State reports a class's current state name ("closed" for unknown
// classes).
func (b *Breaker) State(class string) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.classes[class]
	if c == nil {
		return stateName(stateClosed)
	}
	return stateName(c.state)
}

// Tripped returns the states of every class that has ever opened, for
// /v1/stats, keyed by class and sorted into deterministic map-free output
// by the caller via the sorted key list.
func (b *Breaker) Tripped() map[string]string {
	b.mu.Lock()
	defer b.mu.Unlock()
	keys := make([]string, 0, len(b.classes))
	for class, c := range b.classes {
		if c.tripped {
			keys = append(keys, class)
		}
	}
	sort.Strings(keys)
	out := make(map[string]string, len(keys))
	for _, class := range keys {
		out[class] = stateName(b.classes[class].state)
	}
	return out
}
