package system

import (
	"testing"

	"dylect/internal/core"
	"dylect/internal/engine"
	"dylect/internal/trace"
)

// Tests of the methodology plumbing: warmup, stat resets, writeback path,
// and the first-touch fault model.

func TestWarmupWarmsEverything(t *testing.T) {
	w, _ := trace.ByName("omnetpp")
	opts := Options{
		Workload: w, Design: DesignTMCC, Setting: SettingHigh,
		HugePages: true, ScaleDivisor: 16, FootprintFloor: 64 << 20,
		WarmupAccesses: 50_000, Window: 10 * engine.Microsecond,
	}
	res := Run(opts)
	// After warmup, the timed window must not be dominated by cold
	// misses: the TLB under huge pages should be essentially warm.
	if res.TLBMissRate > 0.05 {
		t.Fatalf("TLB miss rate %.3f after warmup under huge pages", res.TLBMissRate)
	}
	// Faults during the timed window should be rare (hot set touched in
	// warmup).
	if res.Faults > res.MemRefs/20 {
		t.Fatalf("faults %d vs refs %d: warmup did not touch the working set",
			res.Faults, res.MemRefs)
	}
}

func TestColdRunFaultsAndWalks(t *testing.T) {
	w, _ := trace.ByName("omnetpp")
	opts := Options{
		Workload: w, Design: DesignNoComp, Setting: SettingNone,
		HugePages: false, ScaleDivisor: 16, FootprintFloor: 64 << 20,
		WarmupAccesses: 0, Window: 30 * engine.Microsecond,
	}
	res := Run(opts)
	if res.Faults == 0 {
		t.Fatal("cold run must take first-touch faults")
	}
	if res.Walks == 0 {
		t.Fatal("cold run must perform page walks")
	}
	if res.TLBMissRate == 0 {
		t.Fatal("cold 4KB run must miss the TLB")
	}
}

func TestWritebacksReachTheTranslator(t *testing.T) {
	w, _ := trace.ByName("canneal") // write-heavy, irregular
	res := Run(Options{
		Workload: w, Design: DesignTMCC, Setting: SettingHigh,
		HugePages: true, ScaleDivisor: 16, FootprintFloor: 64 << 20,
		WarmupAccesses: 60_000, Window: 30 * engine.Microsecond,
	})
	if res.DemandBytes == 0 {
		t.Fatal("no demand traffic")
	}
	// Dirty L3 victims become MC writes; with canneal's write fraction
	// the DRAM write stream cannot be empty.
	if res.TrafficBytes <= res.DemandBytes {
		t.Fatal("traffic accounting looks wrong (no CTE/migration bytes)")
	}
}

func TestScaleDivisorAndFloor(t *testing.T) {
	w, _ := trace.ByName("bfs") // 2GB registry footprint
	r1 := Run(Options{
		Workload: w, Design: DesignNoComp, Setting: SettingNone, HugePages: true,
		ScaleDivisor: 64, FootprintFloor: 0,
		WarmupAccesses: 1000, Window: engine.Microsecond,
	})
	r2 := Run(Options{
		Workload: w, Design: DesignNoComp, Setting: SettingNone, HugePages: true,
		ScaleDivisor: 64, FootprintFloor: 128 << 20,
		WarmupAccesses: 1000, Window: engine.Microsecond,
	})
	// Footprint drives DRAM sizing for the baseline: floored run needs
	// more DRAM.
	if r2.DRAMBytes <= r1.DRAMBytes {
		t.Fatalf("floor did not grow the footprint: %d vs %d", r1.DRAMBytes, r2.DRAMBytes)
	}
}

func TestEnergyRanksComparison(t *testing.T) {
	w, _ := trace.ByName("omnetpp")
	base := Options{
		Workload: w, Design: DesignDyLeCT, Setting: SettingHigh,
		HugePages: true, ScaleDivisor: 16, FootprintFloor: 64 << 20,
		WarmupAccesses: 30_000, Window: 10 * engine.Microsecond,
	}
	r8 := Run(base)
	base.Ranks = 16
	r16 := Run(base)
	if r16.EnergyPJ <= r8.EnergyPJ {
		t.Fatalf("16-rank energy %.0f not above 8-rank %.0f (idle power dominates)",
			r16.EnergyPJ, r8.EnergyPJ)
	}
}

// TestBuildRejectsOutOfRangeRanks: Build answers a rank count outside
// [0, 16] with an error. Before the bound, -1 panicked in the DRAM model and
// 1<<30 exhausted memory sizing the banks.
func TestBuildRejectsOutOfRangeRanks(t *testing.T) {
	w, _ := trace.ByName("omnetpp")
	opts := Options{
		Workload: w, Design: DesignDyLeCT, Setting: SettingHigh,
		HugePages: true, CTECacheBytes: 8 << 10, Granularity: 4 << 10, GroupSize: 3,
		ScaleDivisor: 16, FootprintFloor: 64 << 20,
		WarmupAccesses: 30_000, Window: 15 * engine.Microsecond,
	}
	if _, err := Build(opts); err != nil {
		t.Fatalf("the unedited options do not build: %v", err)
	}
	for _, ranks := range []int{-1, 1 << 30} {
		o := opts
		o.Ranks = ranks
		if _, err := Build(o); err == nil {
			t.Errorf("Build accepted %d ranks", ranks)
		}
	}
}

func TestDyLeCTPolicyOverride(t *testing.T) {
	w, _ := trace.ByName("omnetpp")
	base := Options{
		Workload: w, Design: DesignDyLeCT, Setting: SettingHigh,
		HugePages: true, ScaleDivisor: 16, FootprintFloor: 64 << 20,
		WarmupAccesses: 40_000, Window: 10 * engine.Microsecond,
	}
	// Direct-to-ML0 must produce ML0 pages without the gradual counters.
	cfg := core.DefaultConfig()
	cfg.DirectToML0 = true
	direct := base
	direct.DyLeCT = &cfg
	r := Run(direct)
	if r.ML0 == 0 {
		t.Fatal("direct-to-ML0 produced no ML0 pages")
	}
	// A disabled sampler (huge period) must produce almost none under the
	// gradual policy.
	cold := core.DefaultConfig()
	cold.SamplePeriod = 1 << 40
	cold.WarmSamplePeriod = 1 << 40
	gradualOff := base
	gradualOff.DyLeCT = &cold
	r2 := Run(gradualOff)
	if r2.ML0 > r.ML0/4 {
		t.Fatalf("sampling off still promoted %d pages (direct: %d)", r2.ML0, r.ML0)
	}
}

func TestDeterminism(t *testing.T) {
	w, _ := trace.ByName("omnetpp")
	opts := Options{
		Workload: w, Design: DesignDyLeCT, Setting: SettingHigh,
		HugePages: true, ScaleDivisor: 16, FootprintFloor: 64 << 20,
		WarmupAccesses: 30_000, Window: 10 * engine.Microsecond, Seed: 7,
	}
	a := Run(opts)
	b := Run(opts)
	if a.Insts != b.Insts || a.CTEHitRate != b.CTEHitRate ||
		a.TrafficBytes != b.TrafficBytes {
		t.Fatalf("simulation not deterministic: %+v vs %+v", a, b)
	}
}
