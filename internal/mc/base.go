package mc

import (
	"fmt"

	"dylect/internal/cache"
	"dylect/internal/comp"
	"dylect/internal/dram"
	"dylect/internal/engine"
	"dylect/internal/metrics"
	"dylect/internal/stats"
)

// Level identifies a unit's memory level in the (up to) three-level
// exclusive hierarchy.
type Level uint8

// Memory levels.
const (
	ML0 Level = iota // uncompressed, short CTE (DyLeCT only)
	ML1              // uncompressed, long CTE
	ML2              // compressed, long CTE
)

// String names the level.
func (l Level) String() string {
	switch l {
	case ML0:
		return "ML0"
	case ML1:
		return "ML1"
	case ML2:
		return "ML2"
	default:
		return fmt.Sprintf("level(%d)", uint8(l))
	}
}

// Translator is the interface the system's LLC-miss path drives. Access is
// the timed path (done fires when a read's data is available; writes are
// posted and may pass done == nil). Warm is the functional path used during
// the methodology's atomic-mode warmup: no timing, no DRAM traffic. For the
// compressed designs Base.Warm documents where the two paths agree.
type Translator interface {
	Access(addr uint64, write bool, done func())
	Warm(addr uint64, write bool)
	Stats() *Stats
}

// Protocol is a compressed design's translation protocol: its CTE lookup
// and its serve policy. Base sequences both, timed in Access and functional
// in Warm, so a design writes each once.
type Protocol interface {
	// Lookup probes the design's CTE caches for unit u, counting the
	// design's own hit split (Base counts CTEHits and CTEMisses), and
	// returns the CTE blocks the access must fetch.
	Lookup(u uint64) Lookup
	// Serve runs once the translation is known: the data access, level
	// changes and promotion policy. fetched reports that the access waited
	// on a fetched CTE block; finish (nil for unobserved accesses) fires
	// when a read's data is available.
	Serve(u, addr uint64, write, fetched bool, finish func())
}

// Fetch is one CTE-table block read a lookup issues.
type Fetch struct {
	Addr  uint64
	Cache bool // fill the CTE cache when the block arrives
}

// Lookup is a CTE lookup's outcome: the blocks to fetch in issue order and
// the index of the one the access waits on. A hit fetches nothing.
type Lookup struct {
	Fetch [2]Fetch
	N     int // blocks to fetch; 0 on a hit
	Wait  int // index of the block the access resumes on
}

// Miss returns the lookup outcome that fetches one block and waits on it.
//
//dylect:hotpath
func Miss(addr uint64, cache bool) Lookup {
	return Lookup{Fetch: [2]Fetch{{Addr: addr, Cache: cache}}, N: 1}
}

// Stats aggregates translator-level statistics shared by all designs.
type Stats struct {
	Requests  stats.Counter
	CTEHits   stats.Counter
	CTEMisses stats.Counter
	// PreGatheredHits / UnifiedHits split CTEHits for DyLeCT (Figure 19).
	PreGatheredHits stats.Counter
	UnifiedHits     stats.Counter
	// CTEBlockFetches counts CTE-table block reads from DRAM.
	CTEBlockFetches stats.Counter

	// WalkHints counts CTE blocks pre-filled by PTB embedding.
	WalkHints stats.Counter

	// CTEEvictions counts CTE-cache fills that displaced a resident block.
	// It is a sampled-only counter: it reaches serialized output through
	// the metrics registry (RegisterMetrics), not through system.Result.
	CTEEvictions stats.Counter

	Expansions    stats.Counter
	Compressions  stats.Counter
	Promotions    stats.Counter
	Demotions     stats.Counter
	Displacements stats.Counter
	PressureStuck stats.Counter
	// EmergencyStalls counts expansions that found the Free List empty and
	// had to compress a victim synchronously on the critical path.
	EmergencyStalls stats.Counter

	// ReadLatency is end-to-end demand read latency at the MC (ns):
	// translation + any expansion stall + DRAM access (Figure 21).
	ReadLatency stats.Accumulator
}

// HitRate returns the CTE cache hit rate (Figure 19 / Figure 5).
func (s *Stats) HitRate() float64 {
	return stats.Ratio(s.CTEHits.Value(), s.CTEHits.Value()+s.CTEMisses.Value())
}

// Reset zeroes all counters at the warmup/measurement boundary.
func (s *Stats) Reset() { *s = Stats{} }

// Params configures the shared machinery.
type Params struct {
	Eng  *engine.Engine
	DRAM *dram.Controller
	// OSBytes is the OS-visible memory (the workload footprint).
	OSBytes uint64
	// Granularity is the compression/translation granularity (4KB in TMCC
	// and DyLeCT; 16/64/128KB for the Figure 6 sweep).
	Granularity uint64
	// SizeModel supplies per-4KB-page compressed sizes.
	SizeModel *comp.SizeModel
	// CTECacheBytes sizes the CTE cache (Table 3: 128KB, 8-way).
	CTECacheBytes int
	CTEAssoc      int
	// CTEHitLatency is the CTE cache lookup time (2 memory clocks).
	CTEHitLatency engine.Time
	// FreeTargetBytes is the Free List watermark demand-adaptive
	// compression maintains (16MB).
	FreeTargetBytes uint64
	// CompLatency models the compression ASIC.
	CompLatency comp.Latency
	// RecencySamplePeriod is how often the Recency List head is updated
	// (every 100 memory requests).
	RecencySamplePeriod int
	// PerfectCTE makes every CTE lookup hit (the hypothetical upper bound
	// in Figure 18).
	PerfectCTE bool
	// EmbedPTB enables TMCC's page-table-block CTE embedding
	// (Section II-B): a page walk's leaf PTB carries truncated CTEs for
	// its pages, so the walk pre-fills the CTE cache at no extra DRAM
	// cost. Only effective under 4KB pages — 2MB PTBs cannot hold their
	// constituent pages' CTEs (Section III-A), which is the paper's
	// motivation.
	EmbedPTB bool
	// WithDyLeCTTables reserves the Pre-gathered Table and access-counter
	// storage in DRAM.
	WithDyLeCTTables bool
	// GroupSize is the DRAM page group size G for short CTEs (3 for
	// 2-bit entries; Figure 25 sweeps 7 and 15).
	GroupSize uint64
	// Obs, when non-nil, receives observation-only structured trace events
	// (page promotions/demotions, CTE cache fill/evict, displacements) and
	// sampled-only counter registrations. Every emission is a pure append
	// to process memory — no engine events, no DRAM traffic — so attaching
	// a recorder cannot change any simulated outcome.
	Obs *metrics.Recorder
}

// withDefaults fills unset fields with Table 3 values.
func (p Params) withDefaults() Params {
	if p.Granularity == 0 {
		p.Granularity = comp.PageSize
	}
	if p.CTECacheBytes == 0 {
		p.CTECacheBytes = 128 << 10
	}
	if p.CTEAssoc == 0 {
		p.CTEAssoc = 8
	}
	if p.CTEHitLatency == 0 {
		p.CTEHitLatency = 1250 * engine.Picosecond // 2 memory clocks
	}
	if p.FreeTargetBytes == 0 {
		p.FreeTargetBytes = 16 << 20
	}
	if p.CompLatency.Per4K == 0 {
		p.CompLatency = comp.DefaultLatency
	}
	if p.RecencySamplePeriod == 0 {
		p.RecencySamplePeriod = 100
	}
	if p.GroupSize == 0 {
		p.GroupSize = 3
	}
	return p
}

// Bounds on Params: the largest CTE cache, and the largest DRAM page group
// a one-byte short CTE can index (the value GroupSize marks INVALID).
const (
	maxCTECacheBytes = 64 << 20
	maxGroupSize     = 255
)

// Validate reports why NewBase cannot lay p out, or nil. With defaults
// filled in, the granularity must be a power of two of at least one page
// and leave at least one unit; the CTE cache must be whole sets of 64B
// lines, at most 64 MiB; the group size must be at most 255 and fit in
// DRAM's frames; and DRAM must hold the CTE tables beside four frames.
func (p Params) Validate() error {
	_, err := p.withDefaults().usableBytes()
	return err
}

// usableBytes returns the DRAM bytes left for frames below the CTE tables
// reserved at its top, or why p cannot be laid out.
func (p Params) usableBytes() (uint64, error) {
	g := p.Granularity
	if g < comp.PageSize || g&(g-1) != 0 {
		return 0, fmt.Errorf("mc: granularity %d is not a power of two of at least %d", g, comp.PageSize)
	}
	nUnits := p.OSBytes / g
	if nUnits == 0 {
		return 0, fmt.Errorf("mc: empty footprint (%d bytes at granularity %d)", p.OSBytes, g)
	}
	if set := 64 * p.CTEAssoc; p.CTEAssoc <= 0 || p.CTECacheBytes <= 0 ||
		p.CTECacheBytes%set != 0 || p.CTECacheBytes > maxCTECacheBytes {
		return 0, fmt.Errorf("mc: CTE cache of %d bytes is not whole %d-way sets of 64B lines up to %d bytes",
			p.CTECacheBytes, p.CTEAssoc, maxCTECacheBytes)
	}
	if p.GroupSize > maxGroupSize {
		return 0, fmt.Errorf("mc: group size %d exceeds a short CTE's %d", p.GroupSize, maxGroupSize)
	}
	total := p.DRAM.Config().TotalBytes()
	nPages := p.OSBytes / comp.PageSize
	tables := align64(nUnits * 8) // unified CTE table: 8B per unit
	if p.WithDyLeCTTables {
		tables += align64(nPages/4 + 1)   // pre-gathered: 2 bits per page
		tables += align64(nPages*5/8 + 1) // counters: 5 bits per page
	}
	reserved := (tables + g - 1) / g * g
	if reserved+g*4 > total {
		return 0, fmt.Errorf("mc: DRAM of %d bytes too small for tables (%d)", total, reserved)
	}
	usable := total - reserved
	if frames := usable / g; p.GroupSize > frames {
		return 0, fmt.Errorf("mc: group size %d exceeds DRAM's %d frames", p.GroupSize, frames)
	}
	return usable, nil
}

// unit is the translation/compression unit's per-unit state.
type unit struct {
	level Level
	// addr is the machine byte address of the unit's frame (ML0/ML1) or
	// chunk (ML2).
	class   uint8 // chunk size class when compressed
	short   uint8 // short CTE value; == GroupSize means INVALID
	counter uint8 // 5-bit sampled access counter
	addr    uint64
}

// Frame owner markers for ownerUnit.
const (
	ownerFree   = int64(-1)
	ownerChunks = int64(-2)
)

// Base implements the machinery common to TMCC, the naive design, and
// DyLeCT, and the Translator over them: a design embeds it and sets Proto
// to itself.
type Base struct {
	P     Params
	Eng   *engine.Engine
	DRAM  *dram.Controller
	Space *Space
	Rec   *Recency
	CTE   *cache.Cache
	S     Stats
	// Proto is the design whose lookup and serve policy Access and Warm
	// sequence.
	Proto Protocol

	units     []unit
	ownerUnit []int64 // per frame: owning unit, ownerFree, or ownerChunks
	// residents lists the compressed units whose chunks live in each
	// carved frame, so a whole chunk frame can be displaced out of a DRAM
	// page group (Section IV-B: group occupants in ML2 migrate via their
	// long CTEs). Indexed by frame; each list is lazily sized to the
	// 16-residents-per-frame packing bound on first use so steady-state
	// compression/expansion churn never reallocates it.
	residents [][]uint64
	// displacing is DisplaceChunkFrame's reused copy of the residents it
	// walks, which relocation removes from the frame's own list.
	displacing []uint64

	unifiedBase    uint64 // machine address of the Unified CTE Table
	preGatherBase  uint64 // machine address of the Pre-gathered Table
	counterBase    uint64 // machine address of the access counters
	nUnits         uint64
	pagesPerUnit   uint64
	frameBlocks    int
	reqCount       uint64 // for recency sampling
	compressing    bool
	functionalMode bool

	// in-flight expansion waiters per unit
	expandWait map[uint64][]func()
	// in-flight CTE block fetch waiters per block address
	fetchWait map[uint64][]func()
	// reservedFrames tracks frames claimed by in-flight expansions whose
	// ownership is not yet recorded (ExpandUnit reserves the frame, then
	// finishes after the decompression latency). The invariant auditor
	// skips them: mid-flight they are legitimately allocated-but-unowned.
	reservedFrames map[uint64]struct{}

	// compressCause labels trace events for the current compression: ""
	// (= "pressure") for demand-adaptive background compression,
	// "emergency" while EnsureFrame compresses on the critical path.
	compressCause string
}

// NewBase lays out DRAM (data frames + reserved tables) and initializes all
// shared structures; it panics on Params that fail Validate. Every OS unit
// starts compressed in ML2, mirroring the methodology's "compress and pack
// everything, then warm up" sequence.
func NewBase(p Params) *Base {
	p = p.withDefaults()
	usable, err := p.usableBytes()
	if err != nil {
		panic(err)
	}
	b := &Base{
		P:              p,
		Eng:            p.Eng,
		DRAM:           p.DRAM,
		expandWait:     make(map[uint64][]func()),
		fetchWait:      make(map[uint64][]func()),
		reservedFrames: make(map[uint64]struct{}),
	}
	b.nUnits = p.OSBytes / p.Granularity
	b.pagesPerUnit = p.Granularity / comp.PageSize
	b.frameBlocks = int(p.Granularity / comp.BlockSize)

	nPages := p.OSBytes / comp.PageSize
	b.unifiedBase = usable
	b.preGatherBase = usable + align64(b.nUnits*8)
	b.counterBase = b.preGatherBase + align64(nPages/4+1)

	b.Space = NewSpace(0, usable/p.Granularity, p.Granularity)
	b.Rec = NewRecency(b.nUnits)
	b.CTE = cache.New(cache.Config{SizeBytes: p.CTECacheBytes, LineBytes: 64, Assoc: p.CTEAssoc})
	b.units = make([]unit, b.nUnits)
	b.residents = make([][]uint64, b.Space.NumFrames())
	b.ownerUnit = make([]int64, b.Space.NumFrames())
	for i := range b.ownerUnit {
		b.ownerUnit[i] = ownerFree
	}

	// Initial placement: compress and pack everything.
	for u := uint64(0); u < b.nUnits; u++ {
		class := b.unitClass(u)
		addr, carved, ok := b.Space.AllocChunk(class)
		if !ok {
			panic(fmt.Sprintf("mc: footprint %d does not fit DRAM %d even fully compressed (unit %d)",
				p.OSBytes, p.DRAM.Config().TotalBytes(), u))
		}
		if carved {
			b.ownerUnit[b.Space.FrameOf(addr)] = ownerChunks
		}
		b.units[u] = unit{level: ML2, addr: addr, class: uint8(class), short: uint8(p.GroupSize)}
		b.addResident(b.Space.FrameOf(addr), u)
	}
	return b
}

// addResident is hot but deliberately not //dylect:hotpath: the append is
// amortized-free because the list is preallocated to the packing bound on
// first use.
func (b *Base) addResident(frame, u uint64) {
	lst := b.residents[frame]
	if cap(lst) == 0 {
		// A frame holds at most NumChunkClasses minimum-size chunks, so one
		// full-bound allocation covers the frame's whole lifetime.
		lst = make([]uint64, 0, comp.NumChunkClasses)
	}
	b.residents[frame] = append(lst, u)
}

//dylect:hotpath
func (b *Base) removeResident(frame, u uint64) {
	lst := b.residents[frame]
	for i, v := range lst {
		if v == u {
			lst[i] = lst[len(lst)-1]
			lst = lst[:len(lst)-1]
			break
		}
	}
	b.residents[frame] = lst
}

func align64(x uint64) uint64 { return (x + 63) &^ 63 }

// Obs returns the attached metrics recorder (nil when unobserved); the
// recorder's methods are nil-safe, so callers emit unconditionally.
func (b *Base) Obs() *metrics.Recorder { return b.P.Obs }

// RegisterMetrics registers the translator's sampled-only counters with the
// recorder so interval samples carry them. Exported counters (everything in
// system.Result) are deliberately not registered twice.
func (b *Base) RegisterMetrics(rec *metrics.Recorder) {
	rec.RegisterCounter("mc.cteEvictions", &b.S.CTEEvictions)
}

// emitLevel records a level-transition event (promotion, demotion,
// expansion, compression) with its policy reason.
func (b *Base) emitLevel(name string, u uint64, from, to Level, reason string) {
	b.P.Obs.Emit(b.Eng.Now(), metrics.Event{
		Cat: metrics.CatLevel, Name: name, Unit: u,
		From: from.String(), To: to.String(), Reason: reason,
	})
}

// emitCTE records a CTE-cache fill or eviction.
func (b *Base) emitCTE(name string, blockAddr uint64, reason string) {
	b.P.Obs.Emit(b.Eng.Now(), metrics.Event{
		Cat: metrics.CatCTE, Name: name, Addr: blockAddr, Reason: reason,
	})
}

// FillCTE installs a block into the CTE cache, counting and tracing any
// eviction it causes. All CTE-cache fills across the designs go through
// here so the evict stream is complete.
//
//dylect:hotpath
func (b *Base) FillCTE(blockAddr uint64, reason string) {
	victim, _, evicted := b.CTE.Fill(blockAddr, false)
	b.emitCTE("fill", blockAddr, reason)
	if evicted {
		b.S.CTEEvictions.Inc()
		b.emitCTE("evict", victim, reason)
	}
}

// Stats implements Translator.
func (b *Base) Stats() *Stats { return &b.S }

// lookup runs the design's CTE lookup for unit u and counts it as a CTE hit
// when it fetches nothing, as a miss otherwise.
//
//dylect:hotpath
func (b *Base) lookup(u uint64) Lookup {
	l := b.Proto.Lookup(u)
	if l.N == 0 {
		b.S.CTEHits.Inc()
	} else {
		b.S.CTEMisses.Inc()
	}
	return l
}

// Access implements Translator, the timed path. The lookup runs at once.
// After the CTE hit latency a hit proceeds to the design's Serve, while a
// miss issues its fetches in order and serves when the awaited block
// arrives. Reads observe ReadLatency when their data is available.
func (b *Base) Access(addr uint64, write bool, done func()) {
	b.S.Requests.Inc()
	u := b.UnitOf(addr)
	l := b.lookup(u)
	start := b.Eng.Now()
	finish := done
	if !write {
		finish = func() {
			b.S.ReadLatency.Observe((b.Eng.Now() - start).Nanoseconds())
			if done != nil {
				done()
			}
		}
	}
	if l.N == 0 {
		b.Eng.Schedule(b.P.CTEHitLatency, func() { b.Proto.Serve(u, addr, write, false, finish) })
		return
	}
	// Lookup latency is paid before the miss is known.
	b.Eng.Schedule(b.P.CTEHitLatency, func() {
		proceed := func() { b.Proto.Serve(u, addr, write, true, finish) }
		for i := 0; i < l.N; i++ {
			var arrived func()
			if i == l.Wait {
				arrived = proceed
			}
			b.FetchCTEBlock(l.Fetch[i].Addr, l.Fetch[i].Cache, arrived)
		}
	})
}

// Warm implements Translator, the functional path: the same lookup, fetches
// and Serve as Access, finishing inline with no latency, no DRAM traffic
// and no closures. Below the Free List watermark the two paths agree on
// every Stats counter but ReadLatency and on every level, with one
// exception in the CTE cache: a two-block miss fills in arrival order when
// timed and in issue order here, so when both blocks share a set their
// recency order may differ. Under pressure the paths part further: Warm
// compresses to the watermark inline, while timed compression takes one
// victim per ASIC latency, interleaved with later accesses.
//
//dylect:hotpath
func (b *Base) Warm(addr uint64, write bool) {
	b.SetFunctional(true)
	b.S.Requests.Inc()
	u := b.UnitOf(addr)
	l := b.lookup(u)
	for i := 0; i < l.N; i++ {
		b.FetchCTEBlock(l.Fetch[i].Addr, l.Fetch[i].Cache, nil)
	}
	b.Proto.Serve(u, addr, write, l.N > 0, nil)
	b.SetFunctional(false)
}

// NumUnits returns the number of translation units.
func (b *Base) NumUnits() uint64 { return b.nUnits }

// SetFunctional switches between functional-warmup and timed mode.
func (b *Base) SetFunctional(on bool) { b.functionalMode = on }

// Functional reports the current mode.
func (b *Base) Functional() bool { return b.functionalMode }

// UnitOf returns the unit index of an OS-physical byte address.
//
//dylect:hotpath
func (b *Base) UnitOf(addr uint64) uint64 { return addr / b.P.Granularity }

// Level returns the memory level of a unit.
//
//dylect:hotpath
func (b *Base) Level(u uint64) Level { return b.units[u].level }

// ShortCTE returns the unit's short CTE (GroupSize == INVALID).
//
//dylect:hotpath
func (b *Base) ShortCTE(u uint64) uint8 { return b.units[u].short }

// UnitAddr returns the unit's current machine address.
//
//dylect:hotpath
func (b *Base) UnitAddr(u uint64) uint64 { return b.units[u].addr }

// unitClass computes the chunk class of a unit from its constituent pages'
// modeled compressed sizes.
func (b *Base) unitClass(u uint64) int {
	var total uint64
	first := u * b.pagesPerUnit
	for i := uint64(0); i < b.pagesPerUnit; i++ {
		total += uint64(b.P.SizeModel.CompressedSize(first + i))
	}
	if total > b.P.Granularity {
		total = b.P.Granularity
	}
	return b.Space.ClassOf(total)
}

// UnifiedBlockAddr returns the machine address of the unified CTE table
// block holding unit u's entry (8 entries of 8B per 64B block).
//
//dylect:hotpath
func (b *Base) UnifiedBlockAddr(u uint64) uint64 { return b.unifiedBase + u/8*64 }

// PreGatheredBlockAddr returns the machine address of the pre-gathered
// table block covering page p (256 2-bit entries per 64B block → 1MB reach).
//
//dylect:hotpath
func (b *Base) PreGatheredBlockAddr(p uint64) uint64 { return b.preGatherBase + p/256*64 }

// CounterBlockAddr returns the machine address of the access-counter block
// for page p.
//
//dylect:hotpath
func (b *Base) CounterBlockAddr(p uint64) uint64 { return b.counterBase + p*5/8/64*64 }

// ReadBlocks issues n sequential 64B reads starting at addr and calls done
// (if non-nil) when the last completes. In functional mode it is free and
// done runs inline.
func (b *Base) ReadBlocks(addr uint64, n int, class dram.Class, background bool, done func()) {
	if b.functionalMode || n == 0 {
		if done != nil {
			done()
		}
		return
	}
	var cb func(engine.Time)
	if done != nil {
		remaining := n
		cb = func(engine.Time) {
			remaining--
			if remaining == 0 {
				done()
			}
		}
	}
	for i := 0; i < n; i++ {
		b.DRAM.Submit(dram.Request{
			Addr: addr + uint64(i)*comp.BlockSize, Class: class,
			Background: background, Done: cb,
		})
	}
}

// WriteBlocks issues n posted 64B writes starting at addr.
func (b *Base) WriteBlocks(addr uint64, n int, class dram.Class, background bool) {
	if b.functionalMode {
		return
	}
	for i := 0; i < n; i++ {
		b.DRAM.Submit(dram.Request{
			Addr: addr + uint64(i)*comp.BlockSize, Write: true, Class: class,
			Background: background,
		})
	}
}

// chunkBlocks returns the DRAM bursts needed for a chunk class.
func (b *Base) chunkBlocks(class int) int {
	return int((b.Space.ClassBytes(class) + comp.BlockSize - 1) / comp.BlockSize)
}

// TouchRecency applies TMCC's sampled Recency List head update (once every
// RecencySamplePeriod requests) for an uncompressed unit.
//
//dylect:hotpath
func (b *Base) TouchRecency(u uint64) {
	b.reqCount++
	if b.reqCount%uint64(b.P.RecencySamplePeriod) != 0 {
		return
	}
	if b.units[u].level != ML2 {
		b.Rec.Touch(u)
	}
}

// CheckPressure starts (or continues) demand-adaptive background
// compression when free frames fall below the watermark.
func (b *Base) CheckPressure() {
	if b.compressing || b.Space.FreeFrameBytes() >= b.P.FreeTargetBytes {
		return
	}
	b.compressing = true
	if b.functionalMode {
		for b.compressStep() {
		}
		b.compressing = false
		return
	}
	b.compressLoop()
}

func (b *Base) compressLoop() {
	if !b.compressStep() {
		b.compressing = false
		return
	}
	// One compression engine: next victim after the ASIC finishes this one.
	b.Eng.Schedule(b.P.CompLatency.For(b.P.Granularity), b.compressLoop)
}

// compressStep compresses one Recency-List-tail victim; it reports whether
// pressure remains and progress was made.
func (b *Base) compressStep() bool {
	if b.Space.FreeFrameBytes() >= b.P.FreeTargetBytes {
		return false
	}
	// Walk from the tail for a compressible victim.
	v, ok := b.Rec.Tail()
	if !ok {
		b.S.PressureStuck.Inc()
		return false
	}
	b.CompressUnit(v)
	return true
}

// CompressUnit moves an uncompressed unit to ML2: allocates a tight chunk,
// moves the data (read frame + write chunk, background), frees the frame,
// and updates the CTE tables. Units mid-expansion are skipped (dropped from
// the Recency List; their next touch re-inserts them).
func (b *Base) CompressUnit(u uint64) {
	if _, busy := b.expandWait[u]; busy {
		b.Rec.Remove(u)
		return
	}
	st := &b.units[u]
	if st.level == ML2 {
		b.Rec.Remove(u)
		return
	}
	class := int(st.class) // unitClass(u), stored at NewBase (AuditInvariants checks it)
	frame := b.Space.FrameOf(st.addr)
	chunk, carved, ok := b.Space.AllocChunk(class)
	if !ok {
		// No space for the compressed copy right now; drop the unit from
		// the Recency List so victim selection makes progress (its next
		// touch re-inserts it).
		b.Rec.Remove(u)
		b.S.PressureStuck.Inc()
		return
	}
	if carved {
		b.ownerUnit[b.Space.FrameOf(chunk)] = ownerChunks
	}
	b.ReadBlocks(st.addr, b.frameBlocks, dram.ClassMigration, true, nil)
	b.WriteBlocks(chunk, b.chunkBlocks(class), dram.ClassMigration, true)
	b.Rec.Remove(u)
	wasML0 := st.level == ML0
	from := st.level
	b.Space.FreeFrame(frame)
	b.ownerUnit[frame] = ownerFree
	st.level = ML2
	st.addr = chunk
	st.class = uint8(class)
	st.short = uint8(b.P.GroupSize)
	b.addResident(b.Space.FrameOf(chunk), u)
	b.updateTables(u, wasML0)
	b.S.Compressions.Inc()
	if wasML0 {
		b.S.Demotions.Inc()
	}
	cause := b.compressCause
	if cause == "" {
		cause = "pressure"
	}
	b.emitLevel("compress", u, from, ML2, cause)
}

// updateTables charges the DRAM writes for a unit's CTE table update (one
// unified-block write; plus the pre-gathered block when the short CTE
// changed) and invalidates any stale cached copy so the cache is re-filled
// with fresh contents on next use.
func (b *Base) updateTables(u uint64, shortChanged bool) {
	b.WriteBlocks(b.UnifiedBlockAddr(u), 1, dram.ClassCTE, true)
	if shortChanged && b.P.WithDyLeCTTables {
		b.WriteBlocks(b.PreGatheredBlockAddr(u*b.pagesPerUnit), 1, dram.ClassCTE, true)
	}
}

// EnsureFrame guarantees a free frame exists, synchronously compressing
// victims if the Free List ran dry (an emergency TMCC also faces); the
// returned stall covers the compression latency added to the caller's
// critical path.
func (b *Base) EnsureFrame() (frame uint64, stall engine.Time, ok bool) {
	stall = 0
	for {
		if f, got := b.Space.AllocFrame(); got {
			return f, stall, true
		}
		v, got := b.Rec.Tail()
		if !got {
			b.S.PressureStuck.Inc()
			return 0, stall, false
		}
		b.compressCause = "emergency"
		b.CompressUnit(v)
		b.compressCause = ""
		b.S.EmergencyStalls.Inc()
		stall += b.P.CompLatency.For(b.P.Granularity)
	}
}

// ExpandUnit promotes an ML2 unit to uncompressed ML1 (the gradual
// ML2→ML1 promotion): reads the chunk, decompresses, writes into a free
// frame. done fires when the decompressed data is available (the demand
// access is served from the expansion buffer). Concurrent requests to a
// unit mid-expansion queue behind the first.
func (b *Base) ExpandUnit(u uint64, done func()) {
	if waiters, busy := b.expandWait[u]; busy {
		b.expandWait[u] = append(waiters, done)
		return
	}
	frame, stall, ok := b.EnsureFrame()
	if !ok {
		// Memory is irrecoverably full; serve from the compressed copy.
		if done != nil {
			done()
		}
		return
	}
	st := &b.units[u]
	oldChunk, oldClass := st.addr, int(st.class)
	if b.functionalMode {
		// Nothing runs between the reservation and an inline finish, so
		// functional mode writes no in-flight marks.
		b.finishExpand(u, frame, oldChunk, oldClass, done)
		return
	}
	b.expandWait[u] = nil // mark in flight; frame is reserved
	b.reservedFrames[frame] = struct{}{}
	decompress := b.P.CompLatency.For(b.P.Granularity)
	b.ReadBlocks(oldChunk, b.chunkBlocks(oldClass), dram.ClassMigration, false, func() {
		b.Eng.Schedule(decompress+stall, func() {
			delete(b.reservedFrames, frame)
			b.finishExpand(u, frame, oldChunk, oldClass, done)
		})
	})
}

// finishExpand moves u from its old chunk into frame once the decompressed
// data is available, then wakes done and every queued waiter.
func (b *Base) finishExpand(u, frame, oldChunk uint64, oldClass int, done func()) {
	st := &b.units[u]
	fa := b.Space.FrameAddr(frame)
	b.ownerUnit[frame] = int64(u)
	st.level = ML1
	st.addr = fa
	st.short = uint8(b.P.GroupSize)
	b.removeResident(b.Space.FrameOf(oldChunk), u)
	if f, ok := b.Space.FreeChunk(oldChunk, oldClass); ok {
		b.ownerUnit[f] = ownerFree
	}
	b.Rec.Touch(u)
	b.updateTables(u, false)
	b.S.Expansions.Inc()
	b.emitLevel("expand", u, ML2, ML1, "demand")
	// Write the decompressed page into its frame (posted).
	b.WriteBlocks(fa, b.frameBlocks, dram.ClassMigration, true)
	waiters := b.expandWait[u]
	delete(b.expandWait, u)
	if done != nil {
		done()
	}
	for _, w := range waiters {
		if w != nil {
			w()
		}
	}
	b.CheckPressure()
}

// FetchCTEBlock reads one CTE-table block from DRAM (deduplicating
// concurrent fetches of the same block) and fills the CTE cache when
// cacheIt is set. done fires when the block arrives.
func (b *Base) FetchCTEBlock(blockAddr uint64, cacheIt bool, done func()) {
	b.S.CTEBlockFetches.Inc()
	if waiters, busy := b.fetchWait[blockAddr]; busy {
		b.fetchWait[blockAddr] = append(waiters, done)
		return
	}
	if b.functionalMode {
		// The block arrives at once; nothing can queue behind it.
		b.finishFetch(blockAddr, cacheIt, done)
		return
	}
	b.fetchWait[blockAddr] = nil
	b.ReadBlocks(blockAddr, 1, dram.ClassCTE, false, func() {
		b.finishFetch(blockAddr, cacheIt, done)
	})
}

// finishFetch completes a CTE block fetch: it fills the CTE cache when
// cacheIt is set, then wakes done and every queued waiter.
func (b *Base) finishFetch(blockAddr uint64, cacheIt bool, done func()) {
	if cacheIt {
		b.FillCTE(blockAddr, "demand")
	}
	waiters := b.fetchWait[blockAddr]
	delete(b.fetchWait, blockAddr)
	if done != nil {
		done()
	}
	for _, w := range waiters {
		if w != nil {
			w()
		}
	}
}

// DataAccess performs the demand 64B access for an uncompressed unit at the
// given OS-physical address; reads call done at data arrival, writes are
// posted (done runs immediately).
//
//dylect:hotpath
func (b *Base) DataAccess(osAddr uint64, write bool, done func()) {
	u := b.UnitOf(osAddr)
	machine := b.units[u].addr + osAddr%b.P.Granularity
	if write {
		b.WriteBlocks(machine, 1, dram.ClassDemand, false)
		if done != nil {
			done()
		}
		return
	}
	if b.functionalMode {
		if done != nil {
			done()
		}
		return
	}
	b.ReadBlocks(machine, 1, dram.ClassDemand, false, done)
}

// LevelCounts returns how many units are in each level (Figure 20).
func (b *Base) LevelCounts() (ml0, ml1, ml2 uint64) {
	for i := range b.units {
		switch b.units[i].level {
		case ML0:
			ml0++
		case ML1:
			ml1++
		default:
			ml2++
		}
	}
	return
}

// SpaceUsage returns the DRAM byte occupancy by memory level plus free
// bytes (frames + chunks) — the breakdown Figure 20 plots.
func (b *Base) SpaceUsage() (ml0, ml1, ml2, free uint64) {
	for i := range b.units {
		switch b.units[i].level {
		case ML0:
			ml0 += b.P.Granularity
		case ML1:
			ml1 += b.P.Granularity
		default:
			ml2 += b.Space.ClassBytes(int(b.units[i].class))
		}
	}
	return ml0, ml1, ml2, b.Space.TotalFreeBytes()
}

// CompressionRatio returns OS bytes per used machine byte achieved right
// now (Table 1's compression ratio).
func (b *Base) CompressionRatio() float64 {
	used := b.Space.NumFrames()*b.P.Granularity - b.Space.TotalFreeBytes()
	if used == 0 {
		return 0
	}
	return float64(b.P.OSBytes) / float64(used)
}
