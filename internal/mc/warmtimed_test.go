package mc_test

import (
	"math/rand"
	"reflect"
	"testing"

	"dylect/internal/comp"
	"dylect/internal/core"
	"dylect/internal/dram"
	"dylect/internal/engine"
	"dylect/internal/mc"
	"dylect/internal/naive"
	"dylect/internal/stats"
	"dylect/internal/tmcc"
)

// TestWarmMatchesTimed drives every compressed design through one seeded
// access stream twice, in lockstep: through the timed Access, draining the
// engine after each call, and through the functional Warm. The stream stays
// below the Free List watermark, where the two paths agree after every
// access on every mc.Stats counter except the timed-only ReadLatency, and at
// the end on the level counts and the space usage.
//
// The CTE caches agree too, with one documented exception: a DyLeCT full
// miss fetches two blocks, which Access fills in arrival order and Warm in
// issue order. When both land in one CTE set their recency order may differ,
// so the test checks that this is the access's shape and re-aligns the warm
// cache before going on.
func TestWarmMatchesTimed(t *testing.T) {
	// DyLeCT samples at its timed period in both modes, so both paths bump
	// the same counters.
	dylect := func(direct bool) func(mc.Params) *mc.Base {
		return func(p mc.Params) *mc.Base {
			return core.New(p, core.Config{
				SamplePeriod: 20, WarmSamplePeriod: 20, PromoteThreshold: 2, DirectToML0: direct,
			}).Base
		}
	}
	tmccDesign := func(p mc.Params) *mc.Base { return tmcc.New(p).Base }
	rows := []struct {
		name    string
		perfect bool
		build   func(mc.Params) *mc.Base
	}{
		{"tmcc", false, tmccDesign},
		{"tmcc-perfect-cte", true, tmccDesign},
		{"dylect", false, dylect(false)},
		{"dylect-direct-to-ml0", false, dylect(true)},
		{"dylect-perfect-cte", true, dylect(false)},
		{"naive", false, func(p mc.Params) *mc.Base { return naive.New(p).Base }},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			mk := func() *mc.Base {
				eng := engine.New()
				d := dram.NewController(eng, dram.DDR4(1, 1, 192)) // 24MB
				return row.build(mc.Params{
					Eng: eng, DRAM: d,
					OSBytes:         32 << 20,
					SizeModel:       comp.NewSizeModel(3, 3.4),
					CTECacheBytes:   8 << 10,
					FreeTargetBytes: 1 << 20,
					PerfectCTE:      row.perfect,
				})
			}
			timed, warm := mk(), mk()
			sets := uint64(timed.CTE.Config().Sets())
			set := func(blk uint64) uint64 { return timed.CTE.LineAddr(blk) % sets }
			rng := rand.New(rand.NewSource(23))
			for i := 0; i < 4000; i++ {
				addr := uint64(rng.Intn(32<<20)) &^ 63
				write := rng.Intn(4) == 0
				fetches := timed.Stats().CTEBlockFetches.Value()
				timed.Access(addr, write, nil)
				timed.Eng.Run()
				warm.Warm(addr, write)

				if !reflect.DeepEqual(timed.CTE.Snapshot(), warm.CTE.Snapshot()) {
					u := timed.UnitOf(addr)
					if timed.Stats().CTEBlockFetches.Value()-fetches != 2 ||
						set(timed.PreGatheredBlockAddr(u)) != set(timed.UnifiedBlockAddr(u)) {
						t.Fatalf("access %d: CTE caches diverged outside a same-set two-block miss", i)
					}
					warm.CTE.Restore(timed.CTE.Snapshot())
				}
				st, sw := *timed.Stats(), *warm.Stats()
				st.ReadLatency, sw.ReadLatency = stats.Accumulator{}, stats.Accumulator{}
				if st != sw {
					vt, vw := reflect.ValueOf(st), reflect.ValueOf(sw)
					for f := 0; f < vt.NumField(); f++ {
						if a, b := vt.Field(f).Interface(), vw.Field(f).Interface(); a != b {
							t.Errorf("access %d: Stats.%s: timed %+v, warm %+v", i, vt.Type().Field(f).Name, a, b)
						}
					}
					t.FailNow()
				}
			}
			if s := timed.Stats(); s.Expansions.Value() == 0 || s.CTEHits.Value() == 0 {
				t.Fatalf("stream did not exercise the design: %d expansions, %d CTE hits",
					s.Expansions.Value(), s.CTEHits.Value())
			}
			var lt, lw [3]uint64
			lt[0], lt[1], lt[2] = timed.LevelCounts()
			lw[0], lw[1], lw[2] = warm.LevelCounts()
			if lt != lw {
				t.Errorf("LevelCounts: timed %v, warm %v", lt, lw)
			}
			var ut, uw [4]uint64
			ut[0], ut[1], ut[2], ut[3] = timed.SpaceUsage()
			uw[0], uw[1], uw[2], uw[3] = warm.SpaceUsage()
			if ut != uw {
				t.Errorf("SpaceUsage: timed %v, warm %v", ut, uw)
			}
		})
	}
}
