// Package system assembles the full simulated machine of Table 3: four
// 4-wide out-of-order cores (interval model with a per-core MLP window),
// per-core L1/L2 caches and a shared L3, per-core TLBs and page walkers
// with walker caches, next-line and stride prefetchers, the
// compressed-memory translator under test (TMCC, DyLeCT, the naive design,
// or the no-compression baseline), and the DDR4 DRAM model. It also
// implements the paper's methodology: functional warmup (gem5 atomic-mode
// analogue) followed by a timed measurement window.
package system

import (
	"dylect/internal/cache"
	"dylect/internal/dram"
	"dylect/internal/engine"
	"dylect/internal/mc"
	"dylect/internal/stats"
	"dylect/internal/tlb"
	"dylect/internal/trace"
)

// Config mirrors Table 3's microarchitecture parameters.
type Config struct {
	Cores          int
	CyclePS        engine.Time // CPU cycle (2.8GHz → ~357ps)
	Width          int         // commit width
	MaxOutstanding int         // per-core in-flight L3-miss window (MLP)

	L1 cache.Config
	L2 cache.Config
	L3 cache.Config

	L1Lat engine.Time // cumulative hit latencies measured from the core
	L2Lat engine.Time
	L3Lat engine.Time
	// OverlapFactor divides L2/L3 hit latency for non-dependent accesses
	// (the OoO window hides most of it); dependent accesses pay in full.
	OverlapFactor int

	TLBEntries       int
	TLBAssoc         int
	WalkerCacheBytes int

	HugePages bool
	// FaultLatency4K/2M model first-touch page allocation (minor fault +
	// zeroing), the "faster page allocation" half of Figure 3's speedup.
	FaultLatency4K engine.Time
	FaultLatency2M engine.Time
}

// Default returns Table 3's configuration.
func Default() Config {
	cycle := 357 * engine.Picosecond // 2.8GHz
	return Config{
		Cores:            4,
		CyclePS:          cycle,
		Width:            4,
		MaxOutstanding:   8,
		L1:               cache.Config{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8},
		L2:               cache.Config{SizeBytes: 256 << 10, LineBytes: 64, Assoc: 8},
		L3:               cache.Config{SizeBytes: 8 << 20, LineBytes: 64, Assoc: 16},
		L1Lat:            3 * cycle,
		L2Lat:            14 * cycle,
		L3Lat:            67 * cycle,
		OverlapFactor:    4,
		TLBEntries:       1024,
		TLBAssoc:         8,
		WalkerCacheBytes: 1 << 10,
		HugePages:        true,
		FaultLatency4K:   1 * engine.Microsecond,
		FaultLatency2M:   2 * engine.Microsecond,
	}
}

// System is one assembled machine.
type System struct {
	Cfg   Config
	Eng   *engine.Engine
	DRAM  *dram.Controller
	Trans mc.Translator
	PT    *tlb.PageTable

	l3      *cache.Cache
	cores   []*coreCtx
	horizon engine.Time
	dramCap uint64

	touched []uint64 // first-touch bitmap over 4KB OS pages
	Faults  stats.Counter
	Walks   stats.Counter
	WalkMem stats.Counter
}

type coreCtx struct {
	sys *System
	id  int
	gen trace.Generator

	tlb    *tlb.TLB
	walker *tlb.Walker
	l1, l2 *cache.Cache
	nlL1   *cache.NextLine
	stL1   *cache.Stride
	stL2   *cache.Stride

	time        engine.Time // local commit clock
	outstanding int
	blocked     bool
	done        bool
	armed       bool
	insts       uint64
	memRefs     uint64
	l3Misses    uint64

	// pfBuf is scratch for prefetcher output, reused across accesses so the
	// per-access hot path stays allocation-free.
	pfBuf []uint64
	// stepFn is the arm() callback, built once per core so re-arming (which
	// happens once per batch yield) does not allocate a fresh closure.
	stepFn func()
}

// New assembles a system over a translator and per-core generators.
func New(cfg Config, eng *engine.Engine, d *dram.Controller, tr mc.Translator,
	pt *tlb.PageTable, gens []trace.Generator) *System {
	s := &System{
		Cfg: cfg, Eng: eng, DRAM: d, Trans: tr, PT: pt,
		l3:      cache.New(cfg.L3),
		dramCap: d.Config().TotalBytes(),
		touched: make([]uint64, (pt.FootprintBytes/4096+63)/64),
	}
	for i := 0; i < cfg.Cores; i++ {
		s.cores = append(s.cores, &coreCtx{
			sys: s, id: i, gen: gens[i],
			tlb:    tlb.NewTLB(cfg.TLBEntries, cfg.TLBAssoc),
			walker: tlb.NewWalker(pt, cfg.WalkerCacheBytes),
			l1:     cache.New(cfg.L1),
			l2:     cache.New(cfg.L2),
			nlL1:   cache.NewNextLine(),
			stL1:   cache.NewStride(2),
			stL2:   cache.NewStride(4),
			pfBuf:  make([]uint64, 0, 8),
		})
	}
	for _, c := range s.cores {
		c := c
		c.stepFn = func() {
			c.armed = false
			c.step()
		}
	}
	return s
}

// firstTouch records a 4KB OS page touch, reporting whether it is new.
func (s *System) firstTouch(pa uint64) bool {
	p := pa / 4096
	w, b := p/64, p%64
	if w >= uint64(len(s.touched)) {
		return false
	}
	if s.touched[w]&(1<<b) != 0 {
		return false
	}
	s.touched[w] |= 1 << b
	return true
}

// walkHinter is implemented by translators that support TMCC's PTB-embedded
// CTE forwarding (Section II-B); the walk that produced a translation also
// delivers the page's CTE.
type walkHinter interface {
	WalkHint(addr uint64)
}

// walkHint forwards the embedded CTE to the translator after a page walk.
// 2MB page-table blocks cannot embed their constituent 4KB pages' CTEs, so
// the hint only fires under 4KB pages (Section III-A).
func (s *System) walkHint(pa uint64) {
	if s.PT.HugePages {
		return
	}
	if h, ok := s.Trans.(walkHinter); ok {
		h.WalkHint(pa)
	}
}

// wrapDRAM maps an address (e.g. a page-table reference beyond the data
// region) into the DRAM address space. Page tables are treated as pinned
// uncompressed metadata (see DESIGN.md).
func (s *System) wrapDRAM(addr uint64) uint64 { return addr % s.dramCap }

// Warmup runs n accesses per core through the functional path: caches,
// TLBs, prefetcher training, translator state (expansions, promotions,
// compression) — no timing. Mirrors the 5-second atomic-mode warmup. Nothing
// here reads translator state; the translator only receives Warm and
// WalkHint calls, which is what lets warm.go share one warmup across designs.
func (s *System) Warmup(n uint64) {
	var a trace.Access
	for _, c := range s.cores {
		for i := uint64(0); i < n; i++ {
			c.gen.Next(&a)
			pa := s.PT.Translate(a.VA)
			line := pa &^ 63
			s.firstTouch(pa)
			if !c.tlb.Lookup(a.VA) {
				c.walker.Walk(a.VA) // train the walker cache
				c.tlb.Insert(a.VA, s.PT.HugePages)
				// A hint only reads its address's compression unit (whole
				// 4KB pages), so hinting with the line changes nothing and
				// keeps every warmup translator call line-aligned, the form
				// the warm log records (warm.go).
				s.walkHint(line)
			}
			if c.l1.Access(line, a.Write) {
				continue
			}
			c.prefetchL1(a.Stream, line)
			if c.l2.Access(line, false) {
				c.l1.Fill(line, a.Write)
				continue
			}
			c.prefetchL2(a.Stream, line)
			if s.l3.Access(line, false) {
				c.l2.Fill(line, false)
				c.l1.Fill(line, a.Write)
				continue
			}
			s.Trans.Warm(line, a.Write)
			s.fill(c, line, a.Write, true)
		}
	}
}

// fill installs a line into L3/L2/L1, sending dirty L3 victims to the
// translator as writebacks.
func (s *System) fill(c *coreCtx, line uint64, dirty, functional bool) {
	if victim, vd, ev := s.l3.Fill(line, false); ev && vd {
		if functional {
			s.Trans.Warm(victim, true)
		} else {
			s.Trans.Access(victim, true, nil)
		}
	}
	c.l2.Fill(line, false)
	c.l1.Fill(line, dirty)
}

// prefetchL1 runs the L1 next-line and stride prefetchers; prefetched lines
// are promoted from L2/L3 when present (no memory-side prefetch).
func (c *coreCtx) prefetchL1(stream, line uint64) {
	lineAddr := line / 64
	want := c.nlL1.Observe(lineAddr, c.pfBuf[:0])
	want = c.stL1.Observe(stream, lineAddr, want)
	for _, la := range want {
		addr := la * 64
		if c.l2.Probe(addr) || c.sys.l3.Probe(addr) {
			c.l1.Fill(addr, false)
		}
	}
	c.pfBuf = want[:0]
}

// prefetchL2 runs the L2 stride prefetcher (degree 4).
func (c *coreCtx) prefetchL2(stream, line uint64) {
	want := c.stL2.Observe(stream, line/64, c.pfBuf[:0])
	for _, la := range want {
		addr := la * 64
		if c.sys.l3.Probe(addr) {
			c.l2.Fill(addr, false)
		}
	}
	c.pfBuf = want[:0]
}

// ResetStats clears all measurement state at the warmup boundary (cache and
// translator contents stay warm).
func (s *System) ResetStats() {
	s.DRAM.ResetStats()
	s.Trans.Stats().Reset()
	s.l3.ResetStats()
	s.Faults.Reset()
	s.Walks.Reset()
	s.WalkMem.Reset()
	for _, c := range s.cores {
		c.l1.ResetStats()
		c.l2.ResetStats()
		c.tlb.ResetStats()
		c.walker.ResetStats()
		c.insts = 0
		c.memRefs = 0
		c.l3Misses = 0
	}
}

// Run simulates the timed window; it returns when all cores have reached
// the horizon.
func (s *System) Run(window engine.Time) {
	s.horizon = s.Eng.Now() + window
	s.DRAM.StartRefresh(s.horizon)
	for _, c := range s.cores {
		c.time = s.Eng.Now()
		c.arm()
	}
	s.Eng.RunUntil(s.horizon)
	// Cut off in-flight work cleanly.
	s.Eng.Drain()
}

// arm schedules the core's next step at its local time (once).
func (c *coreCtx) arm() {
	if c.armed || c.done || c.blocked {
		return
	}
	c.armed = true
	at := c.time
	if at < c.sys.Eng.Now() {
		at = c.sys.Eng.Now()
	}
	c.sys.Eng.ScheduleAt(at, c.stepFn)
}

// step runs the interval model: retire instructions and issue memory
// accesses until the core blocks (dependent miss or full MLP window),
// yields (batch bound), or reaches the horizon.
func (c *coreCtx) step() {
	s := c.sys
	const batch = 512
	// The commit clock cannot lag real time by more than what the ROB can
	// buffer (~224 entries / 4-wide): while the core was stalled on its
	// MLP window, wall time passed without commits.
	robSlack := engine.Time(224/s.Cfg.Width) * s.Cfg.CyclePS
	if now := s.Eng.Now(); c.time+robSlack < now {
		c.time = now - robSlack
	}
	var a trace.Access
	for n := 0; n < batch; n++ {
		if c.time >= s.horizon {
			c.done = true
			return
		}
		if c.blocked || c.outstanding >= s.Cfg.MaxOutstanding {
			return
		}
		c.gen.Next(&a)
		c.insts += uint64(a.NonMemInsts) + 1
		c.memRefs++
		c.time += engine.Time(uint64(a.NonMemInsts)+1) * s.Cfg.CyclePS / engine.Time(s.Cfg.Width)

		pa := s.PT.Translate(a.VA)
		if s.firstTouch(pa) {
			s.Faults.Inc()
			if s.PT.HugePages {
				// One fault per 2MB region: charge only on the first 4KB
				// touch of the region (approximated by probability of the
				// region's first page).
				c.time += s.Cfg.FaultLatency2M / engine.Time(512)
			} else {
				c.time += s.Cfg.FaultLatency4K
			}
		}
		if !c.tlb.Lookup(a.VA) {
			c.walk(a)
			return // blocked until the walk completes
		}
		c.dataAccess(&a, pa)
	}
	c.arm() // yield: let other components interleave
}

// walk performs a page walk: walker-cache-filtered references go through
// L2/L3; misses go to DRAM serially (each level's PTE read depends on the
// previous). The core blocks for the duration.
func (c *coreCtx) walk(a trace.Access) {
	s := c.sys
	s.Walks.Inc()
	refs := c.walker.Walk(a.VA)
	va := a.VA
	acc := a
	c.blocked = true
	var next func(i int)
	next = func(i int) {
		if i >= len(refs) {
			c.tlb.Insert(va, s.PT.HugePages)
			c.blocked = false
			pa := s.PT.Translate(va)
			s.walkHint(pa)
			c.dataAccess(&acc, pa)
			c.arm()
			return
		}
		ref := refs[i]
		switch {
		case c.l2.Access(ref, false):
			c.time += s.Cfg.L2Lat
			next(i + 1)
		case s.l3.Access(ref, false):
			c.time += s.Cfg.L3Lat
			c.l2.Fill(ref, false)
			next(i + 1)
		default:
			s.WalkMem.Inc()
			c.l2.Fill(ref, false)
			s.l3.Fill(ref, false)
			addr := s.wrapDRAM(ref)
			start := s.Eng.Now()
			s.DRAM.Submit(dram.Request{Addr: addr, Class: dram.ClassWalk,
				Done: func(now engine.Time) {
					c.time += s.Cfg.L3Lat + (now - start)
					next(i + 1)
				}})
		}
	}
	next(0)
}

// dataAccess walks the cache hierarchy for a demand access and hands L3
// misses to the translator.
func (c *coreCtx) dataAccess(a *trace.Access, pa uint64) {
	s := c.sys
	line := pa &^ 63
	if c.l1.Access(line, a.Write) {
		return // L1 hits are pipelined
	}
	c.prefetchL1(a.Stream, line)
	overlap := engine.Time(s.Cfg.OverlapFactor)
	if c.l2.Access(line, false) {
		c.l1.Fill(line, a.Write)
		if a.Dependent {
			c.time += s.Cfg.L2Lat
		} else {
			c.time += s.Cfg.L2Lat / overlap
		}
		return
	}
	c.prefetchL2(a.Stream, line)
	if s.l3.Access(line, false) {
		c.l2.Fill(line, false)
		c.l1.Fill(line, a.Write)
		if a.Dependent {
			c.time += s.Cfg.L3Lat
		} else {
			c.time += s.Cfg.L3Lat / overlap
		}
		return
	}
	// L3 miss: through the compressed-memory translator.
	c.l3Misses++
	s.fill(c, line, a.Write, false)
	if a.Write {
		s.Trans.Access(line, true, nil)
		return
	}
	c.outstanding++
	dep := a.Dependent
	if dep {
		c.blocked = true
	}
	s.Trans.Access(line, false, func() {
		c.outstanding--
		if dep {
			c.blocked = false
			// The dependent instruction retires when data arrives.
			if t := s.Eng.Now() + s.Cfg.L3Lat; t > c.time {
				c.time = t
			}
		}
		// Independent misses are hidden by the MLP window; their cost
		// appears as window-full stalls (see the ROB-slack clamp in step).
		c.arm()
	})
}

// Insts returns total committed instructions across cores.
func (s *System) Insts() uint64 {
	var n uint64
	for _, c := range s.cores {
		n += c.insts
	}
	return n
}

// MemRefs returns total memory references issued.
func (s *System) MemRefs() uint64 {
	var n uint64
	for _, c := range s.cores {
		n += c.memRefs
	}
	return n
}

// L3Misses returns total L3 misses (demand reads + writes).
func (s *System) L3Misses() uint64 {
	var n uint64
	for _, c := range s.cores {
		n += c.l3Misses
	}
	return n
}

// IPC returns committed instructions per CPU cycle across all cores over
// the window.
func (s *System) IPC(window engine.Time) float64 {
	cycles := float64(window) / float64(s.Cfg.CyclePS)
	if cycles == 0 {
		return 0
	}
	return float64(s.Insts()) / cycles
}

// TLBMissRate returns the aggregate TLB miss rate.
func (s *System) TLBMissRate() float64 {
	var h, m uint64
	for _, c := range s.cores {
		h += c.tlb.Hits.Value()
		m += c.tlb.Misses.Value()
	}
	return stats.Ratio(m, h+m)
}

// WalkerCacheHitRate returns the aggregate page-walker-cache hit rate
// across cores (non-leaf PTE references filtered by the walker caches).
func (s *System) WalkerCacheHitRate() float64 {
	var hits, refs uint64
	for _, c := range s.cores {
		hits += c.walker.CacheHit.Value()
		refs += c.walker.MemRefs.Value()
	}
	return stats.Ratio(hits, hits+refs)
}

// WalkRefsPerWalk returns the mean memory-hierarchy references per page
// walk across cores.
func (s *System) WalkRefsPerWalk() float64 {
	var walks, refs uint64
	for _, c := range s.cores {
		walks += c.walker.Walks.Value()
		refs += c.walker.MemRefs.Value()
	}
	return stats.Ratio(refs, walks)
}

// L3 exposes the shared cache (tests and harness introspection).
func (s *System) L3() *cache.Cache { return s.l3 }
