// Package core implements DyLeCT — Dynamic Length Compressed-Memory
// Translations (Section IV), the paper's contribution. It extends the
// two-level TMCC hierarchy to three levels:
//
//	ML0: hottest pages, uncompressed, addressed by 2-bit short CTEs via
//	     DRAMPage(p) = hash(p) + shortCTE over 3-frame DRAM page groups;
//	ML1: uncompressed pages with full-length (8B) long CTEs;
//	ML2: compressed pages with long CTEs.
//
// Short CTEs are pre-gathered into a dense side table whose 64B blocks each
// cover 1MB of OS-visible memory, and a single CTE cache holds both
// pre-gathered and unified blocks. On a CTE miss both blocks are fetched in
// parallel; the pre-gathered block is always cached, the unified block only
// when the faulting page is in ML1/ML2 (Section IV-C).
//
// Promotion is gradual: ML2 pages expand to ML1 through the Free List
// (avoiding the double-movement bandwidth problem of Section IV-A), and only
// pages whose sampled access counters beat their DRAM page group's coldest
// occupant by a threshold are migrated into ML0.
package core

import (
	"dylect/internal/mc"
)

// Config holds DyLeCT-specific policy knobs on top of mc.Params.
type Config struct {
	// SamplePeriod approximates the 5% counter sampling rate: one in
	// every SamplePeriod requests bumps the accessed page's counter.
	SamplePeriod uint64
	// WarmSamplePeriod is the sampling period during functional warmup.
	// The paper warms DyLeCT's memory levels for 5 simulated seconds
	// (billions of accesses); our warmup is orders of magnitude shorter,
	// so it samples densely to converge to the same steady state.
	WarmSamplePeriod uint64
	// PromoteThreshold is how much hotter (in counter units) a page must
	// be than the coldest group occupant to displace it.
	PromoteThreshold uint8
	// DirectToML0 is an ablation of the gradual promotion policy
	// (Section IV-B): expansions go straight from ML2 into the page's
	// DRAM page group, paying the double-movement cost of Section IV-A1.
	DirectToML0 bool
}

// DefaultConfig returns the paper's settings: 5% sampling (dense during
// warmup), threshold 2.
func DefaultConfig() Config {
	return Config{SamplePeriod: 20, WarmSamplePeriod: 2, PromoteThreshold: 2}
}

// Controller is the DyLeCT memory-controller module.
type Controller struct {
	*mc.Base
	cfg     Config
	samples uint64
}

// New builds a DyLeCT controller; the pre-gathered table and access
// counters are reserved in DRAM.
func New(p mc.Params, cfg Config) *Controller {
	p.WithDyLeCTTables = true
	if cfg.SamplePeriod == 0 {
		cfg = DefaultConfig()
	}
	c := &Controller{Base: mc.NewBase(p), cfg: cfg}
	c.Proto = c
	return c
}

// Lookup implements mc.Protocol. The protocol follows Figures 14 and 15;
// the hit/miss definitions follow Section IV-C1/C2.
//
//dylect:hotpath
func (c *Controller) Lookup(u uint64) mc.Lookup {
	inML0 := c.Level(u) == mc.ML0
	if c.P.PerfectCTE {
		if inML0 {
			c.S.PreGatheredHits.Inc()
		} else {
			c.S.UnifiedHits.Inc()
		}
		return mc.Lookup{}
	}

	pgBlk := c.PreGatheredBlockAddr(u)
	uBlk := c.UnifiedBlockAddr(u)
	switch {
	case c.CTE.Access(pgBlk, false):
		if inML0 {
			// Common case (green path in Figure 15): valid short CTE.
			c.S.PreGatheredHits.Inc()
			return mc.Lookup{}
		}
		// Short CTE is INVALID: need the unified block.
		if c.CTE.Access(uBlk, false) {
			c.S.UnifiedHits.Inc()
			return mc.Lookup{}
		}
		// The pre-gathered hit told us the page is ML1/ML2, so only the
		// unified block is fetched (and cached — the page uses it).
		return mc.Miss(uBlk, true)
	case c.CTE.Access(uBlk, false):
		// Pre-gathered block missing but the unified block (which also
		// records short CTEs with a marker bit) can serve any level.
		c.S.UnifiedHits.Inc()
		return mc.Lookup{}
	}
	// Full miss: fetch both blocks in parallel (Figure 16), pre-gathered
	// first. The access resumes when the block it actually needs arrives;
	// the pre-gathered block is always cached, the unified block only if
	// the page is in ML1/ML2.
	l := mc.Lookup{Fetch: [2]mc.Fetch{{Addr: pgBlk, Cache: true}, {Addr: uBlk, Cache: !inML0}}, N: 2}
	if !inML0 {
		l.Wait = 1
	}
	return l
}

// Serve implements mc.Protocol: it performs the data access (expanding ML2
// units), maintains the Recency List, and applies the sampled promotion
// policy.
func (c *Controller) Serve(u, addr uint64, write, _ bool, finish func()) {
	c.TouchRecency(u)
	c.sampleAndPromote(u)
	if c.Level(u) == mc.ML2 {
		after := finish
		if c.cfg.DirectToML0 {
			// Ablation: conventional cache-style promotion straight into
			// the group (double page movement per expansion).
			after = func() {
				c.ClaimGroupSlot(u)
				if finish != nil {
					finish()
				}
			}
		}
		if write {
			var postExpand func()
			if c.cfg.DirectToML0 {
				postExpand = func() { c.ClaimGroupSlot(u) }
			}
			c.ExpandUnit(u, postExpand)
			if finish != nil {
				finish()
			}
		} else {
			c.ExpandUnit(u, after)
		}
	} else {
		c.DataAccess(addr, write, finish)
	}
	c.CheckPressure()
}

// sampleAndPromote implements the 5%-sampled access counters and the
// ML1→ML0 promotion trigger.
func (c *Controller) sampleAndPromote(u uint64) {
	c.samples++
	period := c.cfg.SamplePeriod
	if c.Functional() && c.cfg.WarmSamplePeriod > 0 {
		period = c.cfg.WarmSamplePeriod
	}
	if c.samples%period != 0 {
		return
	}
	c.BumpCounter(u)
	if c.Level(u) == mc.ML1 {
		c.TryPromote(u, c.cfg.PromoteThreshold)
	}
}

var _ mc.Translator = (*Controller)(nil)
var _ mc.Protocol = (*Controller)(nil)
