package harness

import "errors"

// Machine-readable cell failure codes. Every cell failure the pool produces
// wraps exactly one of these sentinels, so callers — the serving layer's
// circuit breaker, retry policies, tests — classify failures with errors.Is
// instead of matching message substrings:
//
//	ErrCellTimeout   the per-cell watchdog abandoned a hung attempt
//	ErrCellPanic     the cell's worker panicked (message carries the stack)
//	ErrTransient     a transient failure survived the retry budget
//	ErrCanceled      a context canceled the cell before or during execution
//
// Codes ride alongside the human-readable error (which still names the cell
// key) via a multi-error wrapper, so existing %w chains — including the
// Transient() marker method on injected faults — stay intact.
var (
	ErrCellTimeout = errors.New("cell watchdog timeout")
	ErrCellPanic   = errors.New("cell panic")
	ErrTransient   = errors.New("transient cell failure")
	ErrCanceled    = errors.New("cell canceled")
)

// cellCodes lists every sentinel, in classification-priority order.
var cellCodes = []error{ErrCellTimeout, ErrCellPanic, ErrTransient, ErrCanceled}

// coded attaches a machine-readable code to a cell failure. Unwrap returns
// both branches so errors.Is finds the sentinel and the wrapped chain alike.
type coded struct {
	code error
	err  error
}

func (c *coded) Error() string   { return c.err.Error() }
func (c *coded) Unwrap() []error { return []error{c.code, c.err} }

// withCode wraps err with a failure code; a nil err stays nil.
func withCode(code, err error) error {
	if err == nil {
		return nil
	}
	return &coded{code: code, err: err}
}

// CellErrorCode returns the failure-code sentinel carried by a cell error
// (ErrCellTimeout, ErrCellPanic, ErrTransient, or ErrCanceled), or nil for
// errors without one (unknown workload, audit violations, ...).
func CellErrorCode(err error) error {
	for _, code := range cellCodes {
		if errors.Is(err, code) {
			return code
		}
	}
	return nil
}

// CellErrorCodeName returns a stable lowercase name for the cell failure
// code carried by err ("timeout", "panic", "transient", "canceled"), or ""
// when err carries none. The serving layer exposes this in its wire schema.
func CellErrorCodeName(err error) string {
	switch CellErrorCode(err) {
	case ErrCellTimeout:
		return "timeout"
	case ErrCellPanic:
		return "panic"
	case ErrTransient:
		return "transient"
	case ErrCanceled:
		return "canceled"
	default:
		return ""
	}
}
