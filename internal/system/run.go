package system

import (
	"fmt"

	"dylect/internal/comp"
	"dylect/internal/core"
	"dylect/internal/dram"
	"dylect/internal/engine"
	"dylect/internal/faults"
	"dylect/internal/invariant"
	"dylect/internal/mc"
	"dylect/internal/metrics"
	"dylect/internal/naive"
	"dylect/internal/tlb"
	"dylect/internal/tmcc"
	"dylect/internal/trace"
)

// Design selects the memory-controller design under test.
type Design int

// The evaluated designs.
const (
	DesignNoComp Design = iota // bigger conventional memory, no compression
	DesignTMCC                 // the prior-art baseline
	DesignDyLeCT               // the paper's contribution
	DesignNaive                // Section IV-A3 strawman
)

// String names the design.
func (d Design) String() string {
	switch d {
	case DesignNoComp:
		return "nocomp"
	case DesignTMCC:
		return "tmcc"
	case DesignDyLeCT:
		return "dylect"
	case DesignNaive:
		return "naive"
	}
	return fmt.Sprintf("design(%d)", int(d))
}

// Setting selects the paper's compression settings (Table 2).
type Setting int

// Compression settings.
const (
	SettingLow  Setting = iota // low compression: bigger DRAM
	SettingHigh                // high compression: small DRAM
	SettingNone                // DRAM fits the whole footprint (no compression)
)

// String names the setting.
func (s Setting) String() string {
	switch s {
	case SettingLow:
		return "low"
	case SettingHigh:
		return "high"
	case SettingNone:
		return "none"
	}
	return fmt.Sprintf("setting(%d)", int(s))
}

// Options describes one experiment run.
type Options struct {
	Workload trace.Workload
	Design   Design
	Setting  Setting

	// HugePages selects 2MB OS pages (the paper's evaluations run under
	// huge pages; Figure 3 compares against 4KB).
	HugePages bool
	// CTECacheBytes overrides the 128KB CTE cache (Figure 5 sweep).
	CTECacheBytes int
	// Granularity overrides 4KB compression granularity (Figure 6 sweep).
	Granularity uint64
	// GroupSize overrides the DRAM page group size (Figure 25 sweep).
	GroupSize uint64
	// PerfectCTE models the always-hit upper bound (Figure 18).
	PerfectCTE bool
	// EmbedPTB enables TMCC's PTB-embedded CTE forwarding; only effective
	// under 4KB pages (Section III-A).
	EmbedPTB bool

	// WarmupAccesses per core before the timed window.
	WarmupAccesses uint64
	// Window is the timed simulation length.
	Window engine.Time
	// ScaleDivisor shrinks the workload footprint (and DRAM with it) to
	// bound harness runtime; hardware parameters are untouched. 1 = the
	// scaled sizes in trace.Workloads (see DESIGN.md §3).
	ScaleDivisor uint64
	// FootprintFloor bounds scaling from below (0 = no floor). The
	// harness uses 192MB so every footprint stays well beyond the CTE
	// cache's 64MB unified reach.
	FootprintFloor uint64
	// Seed perturbs the workload generators.
	Seed int64
	// Ranks overrides the DRAM rank count (energy study uses 8 vs 16).
	Ranks int
	// Cfg overrides the microarchitecture (zero value = Table 3 defaults).
	Cfg *Config
	// DyLeCT overrides the DyLeCT policy configuration (nil = paper
	// defaults); used by the ablation studies.
	DyLeCT *core.Config

	// Audit enables the runtime invariant auditor: the translator's full
	// state is walked after warmup, at the window's quarter points, and at
	// end of run. Any violation fails the run with an *invariant.Error
	// naming the offending unit/frame. Audits are strictly read-only, so
	// enabling them cannot change any reported number.
	Audit bool
	// Faults, when non-nil, schedules the plan's deterministic MC-state
	// corruptions inside the timed window (tests and CI smoke only).
	Faults *faults.Plan

	// Obs, when non-nil, receives the run's observability data: interval
	// samples (scheduled on the engine's read-only observation queue) and
	// structured trace events. Attaching a recorder cannot change the
	// Result — observe_test.go proves the export bytes are identical with
	// it on and off. Excluded from serialized configuration: recorders are
	// per-run in-memory state, not experiment identity.
	Obs *metrics.Recorder `json:"-"`
}

// Result carries everything the figures need from one run.
type Result struct {
	Opts   Options
	Window engine.Time

	// Events counts discrete-event-engine events executed over the run
	// (timed window; warmup is functional and schedules none). It is a
	// simulator-throughput denominator for the benchmark harness
	// (internal/perfbench), not a paper metric: RawResult never exports it.
	Events uint64

	Insts    uint64
	IPC      float64
	MemRefs  uint64
	L3Misses uint64

	TLBMissRate float64
	Walks       uint64
	WalkHints   uint64
	Faults      uint64
	// WalkDRAMRefs counts page-walk references that missed the cache
	// hierarchy and went to DRAM; WalkerCacheHitRate and WalkRefsPerWalk
	// summarize the per-core walker caches.
	WalkDRAMRefs       uint64
	WalkerCacheHitRate float64
	WalkRefsPerWalk    float64

	CTEHitRate      float64
	PreGatheredRate float64 // fraction of requests served by pre-gathered blocks
	UnifiedRate     float64
	CTEMisses       uint64
	CTEBlockFetches uint64

	ML0, ML1, ML2 uint64 // unit counts by level at end of run
	// DRAM byte occupancy by level plus free bytes (Figure 20).
	ML0Bytes, ML1Bytes, ML2Bytes, FreeBytes uint64

	ReadLatencyNS float64 // mean MC read latency (Figure 21 input)

	DRAMBytes        uint64
	TrafficBytes     uint64
	CTETrafficBytes  uint64
	MigrationBytes   uint64
	DemandBytes      uint64
	BusUtilization   float64
	DRAMRowHitRate   float64
	EnergyPJ         float64
	CompressionRatio float64

	Expansions, Compressions, Promotions, Demotions uint64
	// Displacements counts DRAM-page-group occupants moved aside for ML0
	// promotions; EmergencyStalls and PressureStuck record Free-List
	// exhaustion events (synchronous compressions and abandoned victim
	// scans).
	Displacements   uint64
	EmergencyStalls uint64
	PressureStuck   uint64
}

// TrafficPerInst returns total DRAM bytes per committed instruction
// (Figure 22's metric).
func (r *Result) TrafficPerInst() float64 {
	if r.Insts == 0 {
		return 0
	}
	return float64(r.TrafficBytes) / float64(r.Insts)
}

// EnergyPerInst returns DRAM picojoules per instruction (Figure 24).
func (r *Result) EnergyPerInst() float64 {
	if r.Insts == 0 {
		return 0
	}
	return r.EnergyPJ / float64(r.Insts)
}

// dramBytesFor sizes DRAM for the workload and setting, rounding to whole
// rows per bank.
func dramBytesFor(w trace.Workload, setting Setting, footprint uint64, ranks int) (uint64, uint64) {
	var want uint64
	switch setting {
	case SettingLow:
		want = uint64(float64(footprint) * w.LowDRAMFrac)
	case SettingHigh:
		want = uint64(float64(footprint) * w.HighDRAMFrac)
	default:
		// Fit everything plus page tables and slack.
		want = footprint + footprint/64 + (32 << 20)
	}
	perRow := uint64(ranks) * 16 * (8 << 10) // ranks * banks * rowBytes
	rows := (want + perRow - 1) / perRow
	if rows == 0 {
		rows = 1
	}
	return rows * perRow, rows
}

// Run builds the system and executes warmup + timed window, panicking on
// failure. It survives as a convenience wrapper for the public dylect API;
// new code (and the harness) should call RunE, which reports misconfigured
// runs and invariant violations as errors instead of crashing.
func Run(opts Options) *Result {
	r, err := RunE(opts)
	if err != nil {
		panic(err)
	}
	return r
}

// RunE builds the system and executes warmup + timed window.
//
// RunE must stay hermetic: the harness worker pool executes many runs
// concurrently, so everything mutable — engine, DRAM, translator, page
// table, generators — is constructed here per call, and no package in the
// simulation graph may hold mutable package-level state. A Result is a pure
// function of opts. parallel_test.go enforces this under -race.
//
// Errors are either configuration faults (the footprint scaled away) or, with
// opts.Audit set, an *invariant.Error describing translator-state corruption.
func RunE(opts Options) (*Result, error) {
	m, err := Build(opts)
	if err != nil {
		return nil, err
	}
	m.Warmup()
	return m.Finish()
}

// Machine is one cell between its phases. Build assembles it; Warmup,
// WarmupRecorded or Restore brings it to the warmup boundary; Finish runs
// the timed window and collects the Result. RunE sequences the phases with a
// live warmup; the harness shares one recorded warmup across every cell of
// a warm key (warm.go). A Machine is single-use and not safe for concurrent
// use.
type Machine struct {
	opts      Options
	s         *System
	dramBytes uint64
}

// maxRanks bounds Options.Ranks: the paper's largest system, the bigger
// conventional memory of Figure 24, has 16.
const maxRanks = 16

// Build assembles the cell's system: DRAM sized for the setting, the
// translator under test, the page table and the per-core generators. Options
// out of range (ranks, or translator geometry that mc.Params.Validate
// rejects) return an error, not a panic.
func Build(opts Options) (*Machine, error) {
	if opts.ScaleDivisor == 0 {
		opts.ScaleDivisor = 1
	}
	cfg := opts.WarmKey().Cfg
	w := opts.Workload
	w.FootprintBytes /= opts.ScaleDivisor
	// The paper's dynamics need footprints well beyond the CTE cache's
	// 64MB unified reach; never scale below that regime (or below the
	// workload's own size).
	if floor := min64(opts.Workload.FootprintBytes, opts.FootprintFloor); w.FootprintBytes < floor {
		w.FootprintBytes = floor
	}
	// Keep instanced partitioning and huge pages aligned.
	w.FootprintBytes &^= (8 << 20) - 1
	if w.FootprintBytes == 0 {
		return nil, fmt.Errorf("system: workload %q footprint scaled away (divisor %d, floor %d)",
			w.Name, opts.ScaleDivisor, opts.FootprintFloor)
	}
	if opts.Ranks < 0 || opts.Ranks > maxRanks {
		return nil, fmt.Errorf("system: %d ranks outside [0, %d] (0 = default)", opts.Ranks, maxRanks)
	}
	ranks := opts.Ranks
	if ranks == 0 {
		ranks = 8
		if opts.Setting == SettingNone {
			ranks = 16 // the bigger conventional system (Figure 24)
		}
	}

	dramBytes, rowsPerBank := dramBytesFor(w, opts.Setting, w.FootprintBytes, ranks)
	eng := engine.New()
	d := dram.NewController(eng, dram.DDR4(1, ranks, rowsPerBank))

	pt := tlb.NewPageTable(w.FootprintBytes, cfg.HugePages, 0, w.FootprintBytes)

	// The paper maintains 16MB of free frames; on scaled-down DRAM keep
	// the same proportion instead of starving the uncompressed levels.
	freeTarget := uint64(16 << 20)
	if t := dramBytes / 32; t < freeTarget {
		freeTarget = t
	}
	var tr mc.Translator
	params := mc.Params{
		Eng: eng, DRAM: d,
		OSBytes:         w.FootprintBytes,
		Granularity:     opts.Granularity,
		SizeModel:       comp.NewSizeModel(uint64(hash64(w.Name)), w.CompressRatio),
		CTECacheBytes:   opts.CTECacheBytes,
		GroupSize:       opts.GroupSize,
		PerfectCTE:      opts.PerfectCTE,
		EmbedPTB:        opts.EmbedPTB,
		FreeTargetBytes: freeTarget,
		Obs:             opts.Obs,
	}
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("system: %w", err)
	}
	switch opts.Design {
	case DesignNoComp:
		tr = mc.NewNoComp(eng, d, w.FootprintBytes)
	case DesignTMCC:
		tr = tmcc.New(params)
	case DesignDyLeCT:
		dcfg := core.DefaultConfig()
		if opts.DyLeCT != nil {
			dcfg = *opts.DyLeCT
		}
		tr = core.New(params, dcfg)
	case DesignNaive:
		tr = naive.New(params)
	default:
		return nil, fmt.Errorf("system: unknown design %v", opts.Design)
	}

	gens := make([]trace.Generator, cfg.Cores)
	for i := range gens {
		gens[i] = w.NewGenerator(i, opts.Seed+1)
	}
	return &Machine{opts: opts, s: New(cfg, eng, d, tr, pt, gens), dramBytes: dramBytes}, nil
}

// Warmup runs the live functional warmup.
func (m *Machine) Warmup() {
	if m.opts.WarmupAccesses > 0 {
		m.s.Warmup(m.opts.WarmupAccesses)
	}
}

// Finish runs the timed window from the warmup boundary and collects the
// Result.
func (m *Machine) Finish() (*Result, error) {
	opts, s := m.opts, m.s
	eng, tr := s.Eng, s.Trans
	s.ResetStats()
	window := opts.Window
	if window == 0 {
		window = 300 * engine.Microsecond
	}
	attachObservability(s, opts.Obs, window)

	// The auditor records only the first failing walk: later audits of an
	// already-corrupt controller would bury the root cause under cascading
	// violations. Audit closures are read-only and schedule nothing, so the
	// extra engine events cannot perturb any simulated outcome.
	var auditErr error
	audit := func(phase string) {
		if auditErr != nil {
			return
		}
		a, ok := tr.(invariant.Auditable)
		if !ok {
			return
		}
		if vs := a.AuditInvariants(); len(vs) > 0 {
			auditErr = &invariant.Error{Phase: phase, Violations: vs}
			opts.Obs.Emit(eng.Now(), metrics.Event{
				Cat: metrics.CatAudit, Name: "violation",
				Reason: phase, N: uint64(len(vs)),
			})
			return
		}
		opts.Obs.Emit(eng.Now(), metrics.Event{
			Cat: metrics.CatAudit, Name: "pass", Reason: phase,
		})
	}
	if opts.Audit {
		if audit("post-warmup"); auditErr != nil {
			return nil, auditErr
		}
		base := eng.Now()
		for k := 1; k <= 3; k++ {
			phase := fmt.Sprintf("window+%d/4", k)
			eng.ScheduleAt(base+window*engine.Time(k)/4, func() { audit(phase) })
		}
	}
	scheduleFaults(eng, window, tr, opts.Faults, opts.Obs)

	s.Run(window)
	if opts.Audit {
		audit("end-of-run")
	}
	if auditErr != nil {
		return nil, auditErr
	}

	return collect(s, opts, window, m.dramBytes), nil
}

// scheduleFaults arms the plan's corruption ops on the event engine. Ops with
// Events set fire once the engine has executed that many events (polled at a
// fixed cadence); the rest fire at their AtFrac position inside the window.
// Injection order is deterministic: the engine is single-threaded and FIFO at
// equal timestamps.
func scheduleFaults(eng *engine.Engine, window engine.Time, tr mc.Translator, plan *faults.Plan, obs *metrics.Recorder) {
	if plan == nil {
		return
	}
	tgt, ok := tr.(faults.Target)
	if !ok {
		return // e.g. the no-compression baseline has no MC state to corrupt
	}
	apply := func(op faults.Op) {
		plan.Apply(tgt, op)
		obs.Emit(eng.Now(), metrics.Event{
			Cat: metrics.CatFault, Name: op.Class.String(), Unit: op.Unit,
		})
	}
	base := eng.Now()
	for _, op := range plan.Ops {
		op := op
		if op.Events > 0 {
			poll := window / 256
			if poll == 0 {
				poll = 1
			}
			var probe func()
			probe = func() {
				if eng.Executed() >= op.Events {
					apply(op)
					return
				}
				eng.Schedule(poll, probe)
			}
			eng.Schedule(poll, probe)
			continue
		}
		frac := op.AtFrac
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		// Quantize the fraction to 1/4096ths of the window so the offset is
		// composed in integer picoseconds (no floating-point duration math).
		steps := int64(frac * 4096)
		eng.ScheduleAt(base+window/4096*engine.Time(steps), func() { apply(op) })
	}
}

func collect(s *System, opts Options, window engine.Time, dramBytes uint64) *Result {
	ts := s.Trans.Stats()
	ds := s.DRAM.Stats()
	r := &Result{
		Opts:        opts,
		Window:      window,
		Events:      s.Eng.Executed(),
		Insts:       s.Insts(),
		IPC:         s.IPC(window),
		MemRefs:     s.MemRefs(),
		L3Misses:    s.L3Misses(),
		TLBMissRate: s.TLBMissRate(),
		Walks:       s.Walks.Value(),
		WalkHints:   ts.WalkHints.Value(),
		Faults:      s.Faults.Value(),

		WalkDRAMRefs:       s.WalkMem.Value(),
		WalkerCacheHitRate: s.WalkerCacheHitRate(),
		WalkRefsPerWalk:    s.WalkRefsPerWalk(),

		CTEHitRate:      ts.HitRate(),
		CTEMisses:       ts.CTEMisses.Value(),
		CTEBlockFetches: ts.CTEBlockFetches.Value(),

		ReadLatencyNS: ts.ReadLatency.Mean(),

		DRAMBytes:       dramBytes,
		TrafficBytes:    ds.TotalBytes(),
		CTETrafficBytes: ds.ClassBytes(dram.ClassCTE),
		MigrationBytes:  ds.ClassBytes(dram.ClassMigration),
		DemandBytes:     ds.ClassBytes(dram.ClassDemand),
		BusUtilization:  ds.Utilization(window),
		DRAMRowHitRate:  ds.RowHitRate(),
		EnergyPJ:        ds.EnergyPJ(s.DRAM.Config(), window),

		Expansions:      ts.Expansions.Value(),
		Compressions:    ts.Compressions.Value(),
		Promotions:      ts.Promotions.Value(),
		Demotions:       ts.Demotions.Value(),
		Displacements:   ts.Displacements.Value(),
		EmergencyStalls: ts.EmergencyStalls.Value(),
		PressureStuck:   ts.PressureStuck.Value(),
	}
	if req := ts.Requests.Value(); req > 0 {
		r.PreGatheredRate = float64(ts.PreGatheredHits.Value()) / float64(req)
		r.UnifiedRate = float64(ts.UnifiedHits.Value()) / float64(req)
	}
	if b, ok := s.Trans.(interface {
		LevelCounts() (uint64, uint64, uint64)
		SpaceUsage() (uint64, uint64, uint64, uint64)
		CompressionRatio() float64
	}); ok {
		r.ML0, r.ML1, r.ML2 = b.LevelCounts()
		r.ML0Bytes, r.ML1Bytes, r.ML2Bytes, r.FreeBytes = b.SpaceUsage()
		r.CompressionRatio = b.CompressionRatio()
	}
	return r
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func hash64(s string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range s {
		h ^= int64(c)
		h *= 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h
}
