package mc

import (
	"dylect/internal/dram"
	"dylect/internal/engine"
)

// NoComp is the "bigger memory system without compression" baseline
// (Section V): OS-physical addresses map identity onto machine addresses,
// there is no translation layer, no decompression, and no migration
// traffic. Figures 4, 6, 21 and 24 normalize against it.
type NoComp struct {
	eng  *engine.Engine
	dram *dram.Controller
	s    Stats
}

// NewNoComp builds the baseline over a DRAM controller that must be at
// least as large as the footprint.
func NewNoComp(eng *engine.Engine, d *dram.Controller, osBytes uint64) *NoComp {
	if d.Config().TotalBytes() < osBytes {
		panic("mc: no-compression baseline needs DRAM >= footprint")
	}
	return &NoComp{eng: eng, dram: d}
}

// Access implements Translator: a bare DRAM access.
func (n *NoComp) Access(addr uint64, write bool, done func()) {
	n.s.Requests.Inc()
	if write {
		n.dram.Submit(&dram.Request{Addr: addr, Write: true, Class: dram.ClassDemand})
		if done != nil {
			done()
		}
		return
	}
	start := n.eng.Now()
	n.dram.Submit(&dram.Request{Addr: addr, Class: dram.ClassDemand, Done: func(now engine.Time) {
		n.s.ReadLatency.Observe((now - start).Nanoseconds())
		if done != nil {
			done()
		}
	}})
}

// Warm implements Translator: nothing to warm.
func (n *NoComp) Warm(addr uint64, write bool) { n.s.Requests.Inc() }

// Stats implements Translator.
func (n *NoComp) Stats() *Stats { return &n.s }

var _ Translator = (*NoComp)(nil)
