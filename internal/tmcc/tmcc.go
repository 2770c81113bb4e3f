// Package tmcc implements the paper's baseline: TMCC (Translation-optimized
// Memory Compression for Capacity, MICRO 2022) as described in Section II-B,
// restricted — exactly like the paper's evaluation — to what applies under
// 2MB huge pages (the PTB-embedding optimization never fires because page
// walks are rare and 2MB PTBs cannot hold the constituent CTEs).
//
// TMCC keeps a two-level exclusive hierarchy: ML1 holds hot pages
// uncompressed, ML2 holds cold pages compressed at page granularity. A flat
// unified CTE table (8B per unit) is cached in the MC's CTE cache. Any
// access to an ML2 unit triggers a page expansion into a Free List frame;
// demand-adaptive background compression of Recency-List-cold units keeps
// 16MB of frames free. The Granularity parameter generalizes the unit to
// 16/64/128KB for the Figure 6 coarse-compression sweep.
package tmcc

import (
	"dylect/internal/invariant"
	"dylect/internal/mc"
)

// Controller is the TMCC memory-controller module.
type Controller struct {
	*mc.Base
}

// New builds a TMCC controller. Params.WithDyLeCTTables is forced off.
func New(p mc.Params) *Controller {
	p.WithDyLeCTTables = false
	c := &Controller{Base: mc.NewBase(p)}
	c.Proto = c
	return c
}

// Lookup implements mc.Protocol: one unified-table block holds the entries
// of eight units and is cached when fetched.
//
//dylect:hotpath
func (c *Controller) Lookup(u uint64) mc.Lookup {
	if c.P.PerfectCTE {
		return mc.Lookup{}
	}
	blk := c.UnifiedBlockAddr(u)
	if !c.CTE.Access(blk, false) {
		return mc.Miss(blk, true)
	}
	c.S.UnifiedHits.Inc()
	return mc.Lookup{}
}

// Serve implements mc.Protocol: Recency-List maintenance, demand expansion
// of compressed units, and the data access itself.
func (c *Controller) Serve(u, addr uint64, write, _ bool, finish func()) {
	c.TouchRecency(u)
	if c.Level(u) == mc.ML2 {
		if write {
			// Writebacks to compressed units expand them too
			// (Section II-B) but the write itself is posted.
			c.ExpandUnit(u, nil)
			if finish != nil {
				finish()
			}
		} else {
			c.ExpandUnit(u, finish)
		}
	} else {
		c.DataAccess(addr, write, finish)
	}
	c.CheckPressure()
}

// WalkHint implements the PTB-embedding optimization (Section II-B): the
// page walk that translated this OS page carried the page's truncated CTE
// inside the page-table block, so the unified CTE block is installed in the
// CTE cache without a DRAM access. The system model invokes it on 4KB-page
// walks only; 2MB PTBs cannot embed their constituent CTEs.
func (c *Controller) WalkHint(addr uint64) {
	if !c.P.EmbedPTB {
		return
	}
	blk := c.UnifiedBlockAddr(c.UnitOf(addr))
	if !c.CTE.Probe(blk) {
		c.FillCTE(blk, "ptb-embed")
		c.S.WalkHints.Inc()
	}
}

// AuditInvariants extends the shared mc.Base audit with TMCC's own
// structural invariant: the hierarchy is strictly two-level (Section II-B),
// so no unit may ever reach ML0 — short CTEs do not exist in this design.
func (c *Controller) AuditInvariants() []invariant.Violation {
	rep := &invariant.Report{Violations: c.Base.AuditInvariants()}
	for u := uint64(0); u < c.NumUnits(); u++ {
		if c.Level(u) == mc.ML0 {
			rep.Addf(mc.CheckLevelExclusivity, int64(u), invariant.None,
				"TMCC is two-level but unit is in ML0")
		}
	}
	return rep.Violations
}

var _ mc.Translator = (*Controller)(nil)
var _ mc.Protocol = (*Controller)(nil)
var _ invariant.Auditable = (*Controller)(nil)
