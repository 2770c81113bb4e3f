// Package naive implements the strawman dynamic-length design the paper
// quantifies in Section IV-A3, used as an ablation: every uncompressed page
// uses a short CTE (so each page expansion must displace whatever occupies
// its DRAM page group — the double-movement bandwidth problem) and short and
// long CTEs live in two separate 64KB caches. Short CTEs gathered from a
// fetched unified block share a tiny 2-byte cacheline whose tag overhead
// wastes most of the cache area (Figure 9, Option A); long CTEs get 8-byte
// lines. The paper measures this design at a 76% CTE hit rate and a 5%
// performance loss versus TMCC; DESIGN.md's ablation bench reproduces the
// comparison.
package naive

import (
	"dylect/internal/cache"
	"dylect/internal/mc"
)

// Controller is the naive dual-cache dynamic-length translator.
type Controller struct {
	*mc.Base
	// shortCache holds gathered 2B lines of eight 2-bit short CTEs. A 64KB
	// budget at ~6B per line (2B data + 4B tag) leaves ~10922 usable lines.
	shortCache *cache.Cache
	// longCache holds one 8B long CTE per line; 64KB / 8B = 8192 entries.
	longCache *cache.Cache
}

// shortLineBytes is the gathered short-CTE line: 8 pages x 2 bits.
const shortLineBytes = 2

// New builds the naive design. The CTE cache budget (Params.CTECacheBytes,
// 128KB at paper scale) is split into two equal dedicated caches, matching
// the paper's two 64KB caches; the short cache pays a 4B-tag-per-2B-line
// area overhead inside its budget (Figure 9, Option A).
func New(p mc.Params) *Controller {
	p.WithDyLeCTTables = true // short CTEs exist; reserve the side tables
	b := mc.NewBase(p)
	half := b.P.CTECacheBytes / 2
	shortLines := half / 6 // 2B data + 4B tag per line
	shortLines -= shortLines % 8
	if shortLines < 8 {
		shortLines = 8
	}
	c := &Controller{
		Base: b,
		shortCache: cache.New(cache.Config{
			SizeBytes: shortLines * shortLineBytes, LineBytes: shortLineBytes, Assoc: 8,
		}),
		longCache: cache.New(cache.Config{
			SizeBytes: half &^ 7, LineBytes: 8, Assoc: 8,
		}),
	}
	c.Proto = c
	return c
}

// shortKey addresses the gathered line covering unit u's group of 8.
func (c *Controller) shortKey(u uint64) uint64 { return u / 8 * shortLineBytes }

// longKey addresses unit u's entry in the long-CTE cache namespace.
func (c *Controller) longKey(u uint64) uint64 { return u * 8 }

// Lookup implements mc.Protocol: uncompressed units probe the short cache,
// compressed ones the long cache; a miss fetches the unified block, which
// neither cache stores whole.
//
//dylect:hotpath
func (c *Controller) Lookup(u uint64) mc.Lookup {
	var hit bool
	if c.Level(u) != mc.ML2 {
		hit = c.shortCache.Access(c.shortKey(u), false)
	} else {
		hit = c.longCache.Access(c.longKey(u), false)
	}
	if hit || c.P.PerfectCTE {
		return mc.Lookup{}
	}
	return mc.Miss(c.UnifiedBlockAddr(u), false)
}

// Serve implements mc.Protocol. A fetched unified block is first gathered:
// its short CTEs into the short cache, and the long CTE that was used into
// the long cache. Expansions then suffer the double-movement problem: the
// expanded page must land in one of its group's frames, so a current
// occupant is first displaced to a Free List frame.
func (c *Controller) Serve(u, addr uint64, write, fetched bool, finish func()) {
	if fetched {
		c.shortCache.Fill(c.shortKey(u), false)
		if c.Level(u) == mc.ML2 {
			c.longCache.Fill(c.longKey(u), false)
		}
	}
	c.TouchRecency(u)
	if c.Level(u) == mc.ML2 {
		if write {
			c.ExpandUnit(u, func() { c.ClaimGroupSlot(u) })
			if finish != nil {
				finish()
			}
		} else {
			c.ExpandUnit(u, func() {
				c.ClaimGroupSlot(u)
				if finish != nil {
					finish()
				}
			})
		}
	} else {
		c.DataAccess(addr, write, finish)
	}
	c.CheckPressure()
}

var _ mc.Translator = (*Controller)(nil)
var _ mc.Protocol = (*Controller)(nil)
