package main

import "testing"

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending: the helper must sort
	}
	return out
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		want  float64
		p, v  float64
		about string
	}{
		{1000, 99, 99, 990, "p99 has exactly 10 samples beyond it"},
		{999, 99, 95, 950, "p99 would leave 9 beyond; fall back to p95"},
		{200, 99, 95, 190, "p95 leaves 10 beyond"},
		{100, 99, 90, 90, "p90 leaves 10 beyond"},
		{40, 99, 75, 30, "p75 leaves 10 beyond"},
		{20, 99, 50, 10, "p50 leaves 10 beyond"},
		{5, 99, 50, 3, "too few samples: the median, labelled p50"},
		{1000, 50, 50, 500, "a median request stays a median"},
	}
	for _, c := range cases {
		p, v, n := tailPercentile(seq(c.n), c.want)
		if p != c.p || v != c.v || n != c.n {
			t.Errorf("%s: n=%d want<=p%.0f: got p%.0f=%v over %d, want p%.0f=%v",
				c.about, c.n, c.want, p, v, n, c.p, c.v)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// ops returns n latencies of ms each.
func ops(n int, ms float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = ms
	}
	return out
}

func TestWindowsGroupConsecutivePasses(t *testing.T) {
	passes := []passTime{
		{ms: 10, cells: 40, lat: ops(40, 1)},
		{ms: 10, cells: 40, lat: ops(40, 1)}, // first window: 80 ops
		{ms: 30, cells: 90, lat: ops(90, 1)}, // second window: 90 ops
		{ms: 5, cells: 20, lat: ops(20, 1)},  // too few: joins the second
	}
	ws := windows(passes, 80)
	if len(ws) != 2 || len(ws[0].lat) != 80 || len(ws[1].lat) != 110 || ws[1].ms != 35 || ws[1].cells != 110 {
		t.Fatalf("windows %+v", ws)
	}
	if ws := windows(passes[:2], 1000); len(ws) != 1 || len(ws[0].lat) != 80 {
		t.Errorf("a run shorter than a window is one window: %+v", ws)
	}
}

func TestFastestWindowSetsTheRate(t *testing.T) {
	ws := []window{
		{ms: 40, cells: 100, lat: ops(100, 1)},
		{ms: 25, cells: 100, lat: ops(100, 1)},
		{ms: 20, cells: 0, lat: ops(100, 1)}, // failed its check: settled nothing
	}
	cells, perOp := fastestWindow(ws).rates()
	if cells != 4000 || perOp != 4000 {
		t.Errorf("fastest window %v cells/s, %v ops/s, want 4000", cells, perOp)
	}
}

func TestQuietestTailTakesTheLowestWindow(t *testing.T) {
	var ws []window
	for _, base := range []float64{1000, 100, 500} {
		w := window{}
		for i := 0; i < 100; i++ {
			w.lat = append(w.lat, base+float64(i))
		}
		ws = append(ws, w)
	}
	p, v, n := quietestTail(ws, 90)
	if p != 90 || v != 189 || n != 100 {
		t.Errorf("got p%.0f=%v over %d, want p90=189 over 100", p, v, n)
	}
}

func TestTallyCountsAFailedPassWhole(t *testing.T) {
	var tl tally
	tl.pass(100, 0, true) // clean pass
	tl.pass(100, 3, true) // three ops errored, output still right
	tl.pass(50, 1, false) // output check failed: every op of the pass fails
	if tl.attempted != 250 || tl.failed != 53 {
		t.Fatalf("attempted %d failed %d, want 250 and 53", tl.attempted, tl.failed)
	}
	if got, want := tl.share(), 53.0/250; got != want {
		t.Errorf("share %v, want %v", got, want)
	}
	if (tally{}).share() != 0 {
		t.Error("an empty tally must report a zero share")
	}
}
