// Package telemetry is the zero-dependency operational observability layer:
// a metric registry with Prometheus text exposition, a minimal parser for
// that format (the scrape validator the dashboard and CI share), and
// request-tracing primitives (request IDs, spans, Server-Timing rendering).
//
// The package is deliberately dumb about time: instruments record values the
// caller hands them, bucket edges are fixed at construction, and nothing
// here reads the wall clock — so no timestamp or rate can leak into label
// space, and an exposition of the same instrument states is byte-identical
// run to run. The repo's observation-only invariant applies with full force:
// telemetry may be fed from settlement hooks and request handlers, but
// nothing in the simulator core (internal/system, internal/engine) may reach
// this package — the detflow analyzer enforces that reachability ban.
package telemetry

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Instrument kinds, also the TYPE line values of the exposition format.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// LatencyBuckets is the default histogram edge set for request-scale
// latencies in seconds: sub-millisecond queue waits through multi-minute
// simulation runs. Edges are fixed (never derived from observed data), so
// the bucket layout is deterministic.
var LatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// family is the shared shape of every instrument: identity, label schema,
// and the live series keyed by joined label values.
type family struct {
	name   string
	help   string
	kind   string
	labels []string
	// buckets is the histogram edge set (ascending, +Inf implied), nil for
	// counters and gauges.
	buckets []float64

	mu     sync.Mutex
	series map[string]*series
}

// series is one labeled time series.
type series struct {
	labelValues []string
	value       float64  // counter / gauge
	bucketCount []uint64 // histogram: per-edge (non-cumulative) counts, +Inf last
	sum         float64  // histogram
	count       uint64   // histogram
}

// appendSeriesKey appends the key of a label-value tuple to b: each value
// prefixed with its length, so two distinct tuples never share a key
// whatever bytes their values hold.
func appendSeriesKey(b []byte, values []string) []byte {
	for _, v := range values {
		b = strconv.AppendInt(b, int64(len(v)), 10)
		b = append(b, ':')
		b = append(b, v...)
	}
	return b
}

// lookup returns the series for labelValues, or nil.
func (f *family) lookup(labelValues []string) *series {
	var buf [128]byte
	return f.series[string(appendSeriesKey(buf[:0], labelValues))]
}

func (f *family) get(labelValues []string) *series {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d",
			f.name, len(f.labels), len(labelValues)))
	}
	s := f.lookup(labelValues)
	if s == nil {
		s = &series{labelValues: append([]string(nil), labelValues...)}
		if f.kind == KindHistogram {
			s.bucketCount = make([]uint64, len(f.buckets)+1)
		}
		f.series[string(appendSeriesKey(nil, labelValues))] = s
	}
	return s
}

// Counter is a monotonically increasing metric.
type Counter struct{ f *family }

// Inc adds one to the series identified by labelValues.
func (c *Counter) Inc(labelValues ...string) { c.Add(1, labelValues...) }

// Add adds delta (which must be >= 0) to the series.
func (c *Counter) Add(delta float64, labelValues ...string) {
	if delta < 0 {
		panic("telemetry: counter decremented")
	}
	c.f.mu.Lock()
	c.f.get(labelValues).value += delta
	c.f.mu.Unlock()
}

// Value reads the series' current value (0 for a series never touched).
func (c *Counter) Value(labelValues ...string) float64 { return readValue(c.f, labelValues) }

// Gauge is a point-in-time level.
type Gauge struct{ f *family }

// Set replaces the series' value.
func (g *Gauge) Set(v float64, labelValues ...string) {
	g.f.mu.Lock()
	g.f.get(labelValues).value = v
	g.f.mu.Unlock()
}

// Value reads the series' current value.
func (g *Gauge) Value(labelValues ...string) float64 { return readValue(g.f, labelValues) }

func readValue(f *family, labelValues []string) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s := f.lookup(labelValues); s != nil {
		return s.value
	}
	return 0
}

// Histogram is a fixed-bucket distribution. Buckets are set at construction
// and never adapt, so the exposition layout is deterministic.
type Histogram struct{ f *family }

// Observe records one value.
func (h *Histogram) Observe(v float64, labelValues ...string) {
	h.f.mu.Lock()
	s := h.f.get(labelValues)
	i := sort.SearchFloat64s(h.f.buckets, v) // first edge >= v
	s.bucketCount[i]++
	s.sum += v
	s.count++
	h.f.mu.Unlock()
}

// Count reads the series' observation count.
func (h *Histogram) Count(labelValues ...string) uint64 {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if s := h.f.lookup(labelValues); s != nil {
		return s.count
	}
	return 0
}

// Registry holds a set of instruments and renders them in the Prometheus
// text exposition format. Families print in name order and series in label
// order, so two registries in the same state expose identical bytes.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byName: make(map[string]*family)} }

func (r *Registry) register(name, help, kind string, buckets []float64, labels []string) *family {
	if !validMetricName(name) {
		panic("telemetry: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range labels {
		if !validMetricName(l) {
			panic("telemetry: invalid label name " + strconv.Quote(l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic("telemetry: duplicate metric " + name)
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: append([]string(nil), labels...),
		series: make(map[string]*series),
	}
	if kind == KindHistogram {
		if len(buckets) == 0 {
			buckets = LatencyBuckets
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i] <= buckets[i-1] {
				panic("telemetry: histogram buckets for " + name + " are not strictly ascending")
			}
		}
		f.buckets = append([]float64(nil), buckets...)
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// NewCounter registers a counter family. Panics on a duplicate or invalid
// name — instrument registration is program structure, not runtime input.
func (r *Registry) NewCounter(name, help string, labels ...string) *Counter {
	return &Counter{f: r.register(name, help, KindCounter, nil, labels)}
}

// NewGauge registers a gauge family.
func (r *Registry) NewGauge(name, help string, labels ...string) *Gauge {
	return &Gauge{f: r.register(name, help, KindGauge, nil, labels)}
}

// NewHistogram registers a histogram family with the given ascending bucket
// edges (+Inf is implicit; nil edges default to LatencyBuckets).
func (r *Registry) NewHistogram(name, help string, buckets []float64, labels ...string) *Histogram {
	return &Histogram{f: r.register(name, help, KindHistogram, buckets, labels)}
}

// WriteTo renders every family in the Prometheus text exposition format
// (version 0.0.4). Families appear in name order with their HELP/TYPE lines
// even when they have no series yet, so a scrape always names the full
// metric surface.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var sb strings.Builder
	for _, f := range fams {
		f.expose(&sb)
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// expose renders one family.
func (f *family) expose(sb *strings.Builder) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fmt.Fprintf(sb, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(sb, "# TYPE %s %s\n", f.name, f.kind)
	all := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		all = append(all, s)
	}
	slices.SortFunc(all, func(a, b *series) int { return slices.Compare(a.labelValues, b.labelValues) })
	for _, s := range all {
		switch f.kind {
		case KindHistogram:
			cum := uint64(0)
			for i, edge := range f.buckets {
				cum += s.bucketCount[i]
				fmt.Fprintf(sb, "%s_bucket%s %s\n", f.name,
					renderLabels(f.labels, s.labelValues, "le", formatFloat(edge)),
					strconv.FormatUint(cum, 10))
			}
			cum += s.bucketCount[len(f.buckets)]
			fmt.Fprintf(sb, "%s_bucket%s %s\n", f.name,
				renderLabels(f.labels, s.labelValues, "le", "+Inf"),
				strconv.FormatUint(cum, 10))
			fmt.Fprintf(sb, "%s_sum%s %s\n", f.name,
				renderLabels(f.labels, s.labelValues, "", ""), formatFloat(s.sum))
			fmt.Fprintf(sb, "%s_count%s %s\n", f.name,
				renderLabels(f.labels, s.labelValues, "", ""),
				strconv.FormatUint(s.count, 10))
		default:
			fmt.Fprintf(sb, "%s%s %s\n", f.name,
				renderLabels(f.labels, s.labelValues, "", ""), formatFloat(s.value))
		}
	}
}

// renderLabels renders a {k="v",...} block, empty when there are no labels.
// extraName/extraValue append one synthetic label (the histogram "le").
func renderLabels(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraName)
		sb.WriteString(`="`)
		sb.WriteString(extraValue)
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// validMetricName enforces the exposition grammar for metric and label
// names: [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}
