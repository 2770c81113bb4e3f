package main

import (
	"math"
	"slices"
	"testing"

	"dylect/internal/engine"
	"dylect/internal/harness"
	"dylect/internal/system"
)

// spread is the distance between the fastest and slowest run.
func spread(xs []float64) float64 { return slices.Max(xs) - slices.Min(xs) }

// The differencing split must account for the whole cell: build + warmup +
// window, measured from truncated runs, must match the fastest of a second,
// independent set of full cells, within the spread of the full runs (on a
// shared host that spread is the noise the split has to live with).
func TestSplitSumsToFullCell(t *testing.T) {
	if testing.Short() {
		t.Skip("times simulations")
	}
	cfg := scaledConfig([]string{"mcf"}, 20_000, 50*engine.Microsecond)
	for _, pd := range probeDesigns {
		opts, err := cellOptions(cfg, "mcf", pd.d, pd.s)
		if err != nil {
			t.Fatal(err)
		}
		c, err := splitCell(opts, 5)
		if err != nil {
			t.Fatal(err)
		}
		if c.buildMS() <= 0 || c.warmupMS() <= 0 || c.windowMS() <= 0 {
			t.Errorf("%s: every part must take time: build %.2f warmup %.2f window %.2f ms",
				pd.d, c.buildMS(), c.warmupMS(), c.windowMS())
		}
		// A second, independent set of full cells.
		again, err := splitCell(opts, 5)
		if err != nil {
			t.Fatal(err)
		}
		sum := c.buildMS() + c.warmupMS() + c.windowMS()
		full := slices.Min(again.full)
		tol := math.Max(math.Max(spread(again.full), spread(c.full)), 0.1*full)
		if math.Abs(sum-full) > tol {
			t.Errorf("%s: build+warmup+window = %.2f ms, independent full cell %.2f ms (tolerance %.2f)",
				pd.d, sum, full, tol)
		}
		if c.events != again.events || c.events == 0 {
			t.Errorf("%s: events %d then %d", pd.d, c.events, again.events)
		}
	}
}

// The split probe must time the very cell the harness runs: its full run
// reproduces the harness's Result.
func TestCellOptionsMatchHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	cfg := scaledConfig([]string{"bfs"}, 5_000, 5*engine.Microsecond)
	opts, err := cellOptions(cfg, "bfs", system.DesignDyLeCT, system.SettingHigh)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := system.RunE(opts)
	if err != nil {
		t.Fatal(err)
	}
	r := harness.NewRunner(cfg)
	viaHarness, err := r.Result("bfs", system.DesignDyLeCT, system.SettingHigh)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Events != viaHarness.Events || direct.Insts != viaHarness.Insts || direct.IPC != viaHarness.IPC {
		t.Errorf("probe cell differs from the harness cell: events %d/%d insts %d/%d ipc %v/%v",
			direct.Events, viaHarness.Events, direct.Insts, viaHarness.Insts, direct.IPC, viaHarness.IPC)
	}
}
