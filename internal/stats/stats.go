// Package stats provides the lightweight statistics machinery shared by all
// simulator components: named counters, ratios, latency accumulators,
// histograms, and plain-text table rendering for the experiment harness.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Ratio returns a/b as a float, or 0 when b is zero.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Accumulator tracks a running sum, count, min and max of float samples —
// used for latency and occupancy measurements.
type Accumulator struct {
	sum   float64
	sumSq float64
	count uint64
	min   float64
	max   float64
}

// Observe adds one sample.
func (a *Accumulator) Observe(v float64) {
	if a.count == 0 || v < a.min {
		a.min = v
	}
	if a.count == 0 || v > a.max {
		a.max = v
	}
	a.sum += v
	a.sumSq += v * v
	a.count++
}

// Count returns the number of samples observed.
func (a *Accumulator) Count() uint64 { return a.count }

// Sum returns the sum of all samples.
func (a *Accumulator) Sum() float64 { return a.sum }

// Mean returns the arithmetic mean, or 0 with no samples.
func (a *Accumulator) Mean() float64 {
	if a.count == 0 {
		return 0
	}
	return a.sum / float64(a.count)
}

// Min returns the smallest observed sample, or 0 with no samples.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observed sample, or 0 with no samples.
func (a *Accumulator) Max() float64 { return a.max }

// StdDev returns the population standard deviation.
func (a *Accumulator) StdDev() float64 {
	if a.count == 0 {
		return 0
	}
	m := a.Mean()
	v := a.sumSq/float64(a.count) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Histogram is a fixed-bucket histogram over [0, bucketWidth*len(buckets));
// samples beyond the last bucket land in the overflow bucket.
type Histogram struct {
	bucketWidth float64
	buckets     []uint64
	overflow    uint64
	acc         Accumulator
}

// NewHistogram creates a histogram with n buckets of the given width.
func NewHistogram(n int, bucketWidth float64) *Histogram {
	return &Histogram{bucketWidth: bucketWidth, buckets: make([]uint64, n)}
}

// Observe adds a sample.
func (h *Histogram) Observe(v float64) {
	h.acc.Observe(v)
	i := int(v / h.bucketWidth)
	if i < 0 {
		i = 0
	}
	if i >= len(h.buckets) {
		h.overflow++
		return
	}
	h.buckets[i]++
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.acc.Count() }

// Mean returns the sample mean.
func (h *Histogram) Mean() float64 { return h.acc.Mean() }

// Percentile returns an approximate p-quantile (0 < p <= 1) using bucket
// midpoints; overflow samples report the overflow boundary.
func (h *Histogram) Percentile(p float64) float64 {
	total := h.acc.Count()
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(p * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, b := range h.buckets {
		cum += b
		if cum >= target {
			return (float64(i) + 0.5) * h.bucketWidth
		}
	}
	return float64(len(h.buckets)) * h.bucketWidth
}

// Table renders aligned plain-text result tables for the harness; every
// figure and table regenerated from the paper is printed through it.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; values are formatted with %v, floats with 4
// significant digits.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case float32:
			row[i] = formatFloat(float64(v))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// GeoMean returns the geometric mean of strictly positive values, ignoring
// non-positive entries (matching how the paper averages speedups).
func GeoMean(vs []float64) float64 {
	sum := 0.0
	n := 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean of vs (0 for empty input).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// SortedKeys returns the keys of m in sorted order; harness output must be
// deterministic run to run.
func SortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
