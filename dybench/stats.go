package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail metric may fall back to, highest
// first. A percentile is reported only when at least minBeyond samples lie
// above it; below that a single slow op decides the value.
var tailLadder = []float64{99, 95, 90, 75, 50}

const minBeyond = 10

// percentile is the nearest-rank percentile p (0 < p <= 100) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankOf(len(sorted), p)-1]
}

// rankOf is the 1-based nearest rank of percentile p among n samples.
func rankOf(n int, p float64) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tailPercentile reports the highest percentile no higher than want that has
// at least minBeyond samples above it, its value, and the sample count. With
// too few samples for even the median it reports the median, so the caller
// always gets a number; the returned percentile says which one it is.
func tailPercentile(samples []float64, want float64) (p, v float64, n int) {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	n = len(sorted)
	for _, q := range tailLadder {
		if q > want {
			continue
		}
		if n-rankOf(n, q) >= minBeyond {
			return q, percentile(sorted, q), n
		}
	}
	return 50, percentile(sorted, 50), n
}

// median of samples (mean of the middle pair for even counts).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// End-to-end estimators. The two-vCPU VM this benchmark was tuned on shares
// its CPUs and memory system with other tenants, which slow it for stretches
// of seconds to minutes. So a run is split into windows of consecutive
// passes, and throughput and the median are read from the window where they
// are best: the stretch the host disturbed least. Every op of a window
// counts. The p99 is taken over the whole run instead: a window's p99 rests
// on its ten slowest ops, too few for its best window to repeat from run to
// run. README.md gives the measurements behind both choices.

// passTime is one pass of a workload's fixed work.
type passTime struct {
	ms    float64
	cells int       // cells settled; 0 when the pass failed its output check
	lat   []float64 // per-op latency in ms, in completion order
}

// windowOps is the fewest ops a window holds. A fabric-dispatch window is
// about ten passes; a sweep-paper run has fewer ops, so its whole run is one
// window.
const windowOps = 1000

// window is a stretch of consecutive passes.
type window struct {
	ms    float64
	cells int
	lat   []float64
}

func (w *window) add(ms float64, cells int, lat []float64) {
	w.ms += ms
	w.cells += cells
	w.lat = append(w.lat, lat...)
}

// windows groups passes into windows of at least minOps ops. A remainder
// too small for a window of its own joins the last one; a run with fewer
// than minOps ops is one window.
func windows(passes []passTime, minOps int) []window {
	var out []window
	var cur window
	for _, p := range passes {
		cur.add(p.ms, p.cells, p.lat)
		if len(cur.lat) >= minOps {
			out = append(out, cur)
			cur = window{}
		}
	}
	if len(out) == 0 {
		return []window{cur}
	}
	if len(cur.lat) > 0 {
		out[len(out)-1].add(cur.ms, cur.cells, cur.lat)
	}
	return out
}

// rates are cells and ops per second.
func (w window) rates() (cellsPerS, opsPerS float64) {
	return float64(w.cells) / w.ms * 1000, float64(len(w.lat)) / w.ms * 1000
}

// fastestWindow is the window with the most cells per second.
func fastestWindow(ws []window) window {
	best, bestRate := ws[0], 0.0
	for _, w := range ws {
		if r, _ := w.rates(); r > bestRate {
			best, bestRate = w, r
		}
	}
	return best
}

// medianPassMS is the median wall time of passes.
func medianPassMS(passes []passTime) float64 {
	ms := make([]float64, len(passes))
	for i, p := range passes {
		ms[i] = p.ms
	}
	return median(ms)
}

// quietestTail is the lowest tailPercentile(want) of any window, with the
// percentile it is and that window's op count.
func quietestTail(ws []window, want float64) (p, v float64, n int) {
	v = math.Inf(1)
	for _, w := range ws {
		if wp, wv, wn := tailPercentile(w.lat, want); wv < v {
			p, v, n = wp, wv, wn
		}
	}
	return p, v, n
}

// tally counts ops attempted and failed. A pass whose output check fails
// counts every op it contained as failed, even ops that returned without an
// error: their results are part of an output that is wrong.
type tally struct {
	attempted, failed int
}

// pass records n ops of which errs returned an error; ok reports whether the
// pass's output check held.
func (t *tally) pass(n, errs int, ok bool) {
	t.attempted += n
	if !ok {
		t.failed += n
		return
	}
	t.failed += errs
}

// share is the failed fraction of attempted ops (0 when nothing ran).
func (t tally) share() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
