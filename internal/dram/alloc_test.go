package dram

import (
	"testing"

	"dylect/internal/engine"
)

// Dynamic backing for the //dylect:hotpath annotations on the controller:
// one Submit-to-completion cycle is budgeted at exactly one allocation —
// the generation-stamped service closure armed per wakeup, which is load-
// bearing (it lets a re-arm invalidate an already-scheduled pass) and
// cannot be pooled without changing service timing. Everything else —
// copying the request into a recycled slot, linking it into its bank's
// list, the bank pick, burst issue, stats — must be allocation-free once
// the slot pool has grown to the queue's depth.

func TestSubmitServiceAllocBudget(t *testing.T) {
	eng := engine.New()
	c := NewController(eng, testConfig())
	var addr uint64
	if n := testing.AllocsPerRun(1000, func() {
		addr += 4096
		c.Submit(Request{Addr: addr % c.Config().TotalBytes()})
		eng.Run()
	}); n > 1 {
		t.Fatalf("Submit+drain allocated %.2f/op, budget is 1 (the armed service closure)", n)
	}
}

func TestSubmitBatchAllocBudget(t *testing.T) {
	eng := engine.New()
	c := NewController(eng, testConfig())
	// A batch drains in fewer service passes than it has requests, so the
	// per-batch allocation count (one arm closure per pass) must stay
	// strictly below one per request: Submit itself is allocation-free.
	const batch = 4
	var addr uint64
	if n := testing.AllocsPerRun(1000, func() {
		for i := 0; i < batch; i++ {
			addr += 4096
			c.Submit(Request{Addr: (addr + uint64(i)*64) % c.Config().TotalBytes()})
		}
		eng.Run()
	}); n >= batch {
		t.Fatalf("%dx Submit+drain allocated %.2f/op, want fewer than one per request", batch, n)
	}
}
