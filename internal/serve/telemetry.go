package serve

import (
	"net/http"

	"dylect/internal/harness"
	"dylect/internal/telemetry"
)

// Telemetry owns the service's metric surface: one registry with every
// family pre-registered, so a scrape always names the complete schema even
// before traffic arrives. Construct one with NewTelemetry, pass it in
// Options, and wire the store observer into harness.StoreOptions when the
// server runs with a durable store. A nil Options.Telemetry disables the
// whole layer — and the byte-identity tests prove that toggling it cannot
// change a single exported result byte.
//
// Metric reference (every family and label; DESIGN.md §15 carries the same
// table with commentary):
//
//	dylect_requests_total{code}            counter    terminal outcome per request
//	dylect_request_seconds                 histogram  end-to-end /v1/run latency
//	dylect_queue_wait_seconds              histogram  admission queue wait
//	dylect_queue_depth                     gauge      queued requests (at scrape)
//	dylect_queue_cost                      gauge      queued fresh-cell cost
//	dylect_running_cost                    gauge      admitted fresh-cell cost
//	dylect_cell_seconds{class}             histogram  fresh cell execution time
//	dylect_cells_total{class,source}       counter    settled cells, fresh|store|remote
//	dylect_cell_failures_total{class,code} counter    failed cells by error code
//	dylect_breaker_transitions_total{class,to} counter breaker state entries
//	dylect_breaker_open_classes            gauge      classes not closed (at scrape)
//	dylect_memory_level                    gauge      0 ok / 1 degraded / 2 critical
//	dylect_store_ops_total{op}             counter    hit|miss|put|eviction|quarantine
//	dylect_store_quarantines_total{reason} counter    quarantines by reason
//	dylect_store_records                   gauge      live store records (at scrape)
//	dylect_store_bytes                     gauge      live store bytes (at scrape)
type Telemetry struct {
	reg *telemetry.Registry

	requests   *telemetry.Counter
	reqLatency *telemetry.Histogram
	queueWait  *telemetry.Histogram

	queueDepth  *telemetry.Gauge
	queueCost   *telemetry.Gauge
	runningCost *telemetry.Gauge

	cellSeconds  *telemetry.Histogram
	cells        *telemetry.Counter
	cellFailures *telemetry.Counter

	breakerTransitions *telemetry.Counter
	breakerOpen        *telemetry.Gauge
	memLevel           *telemetry.Gauge

	storeOps         *telemetry.Counter
	storeQuarantines *telemetry.Counter
	storeRecords     *telemetry.Gauge
	storeBytes       *telemetry.Gauge
}

// cellBuckets spans simulation-cell settlements: store restores land in the
// sub-millisecond edges, real cells run seconds to minutes.
var cellBuckets = []float64{
	0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600,
}

// queueBuckets spans admission waits: usually instant, pathologically up to
// the request deadline.
var queueBuckets = []float64{
	0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 15, 60, 120,
}

// NewTelemetry builds the service's instrument set.
func NewTelemetry() *Telemetry {
	r := telemetry.NewRegistry()
	return &Telemetry{
		reg: r,
		requests: r.NewCounter("dylect_requests_total",
			"Terminal /v1/run outcomes by stable code (ok, or the rejection/error code).", "code"),
		reqLatency: r.NewHistogram("dylect_request_seconds",
			"End-to-end /v1/run latency in seconds, every outcome.", nil),
		queueWait: r.NewHistogram("dylect_queue_wait_seconds",
			"Admission wait in seconds, observed for every request that reached admission.", queueBuckets),
		queueDepth: r.NewGauge("dylect_queue_depth",
			"Requests waiting in the admission queue at scrape time."),
		queueCost: r.NewGauge("dylect_queue_cost",
			"Total fresh-cell cost of queued requests at scrape time."),
		runningCost: r.NewGauge("dylect_running_cost",
			"Total fresh-cell cost of admitted requests at scrape time."),
		cellSeconds: r.NewHistogram("dylect_cell_seconds",
			"Fresh cell execution time in seconds by (workload/design) class.", cellBuckets, "class"),
		cells: r.NewCounter("dylect_cells_total",
			"Successfully settled cells by class and source (fresh simulation, durable store, or remote fabric dispatch).",
			"class", "source"),
		cellFailures: r.NewCounter("dylect_cell_failures_total",
			"Failed cells by class and stable error code.", "class", "code"),
		breakerTransitions: r.NewCounter("dylect_breaker_transitions_total",
			"Circuit-breaker state entries by class and entered state.", "class", "to"),
		breakerOpen: r.NewGauge("dylect_breaker_open_classes",
			"Classes currently open or half-open at scrape time."),
		memLevel: r.NewGauge("dylect_memory_level",
			"Memory-pressure level at scrape time: 0 ok, 1 degraded, 2 critical."),
		storeOps: r.NewCounter("dylect_store_ops_total",
			"Durable-store operations: hit, miss, put, eviction, quarantine.", "op"),
		storeQuarantines: r.NewCounter("dylect_store_quarantines_total",
			"Durable-store quarantines by detected reason.", "reason"),
		storeRecords: r.NewGauge("dylect_store_records",
			"Live (verified, unevicted) store records at scrape time."),
		storeBytes: r.NewGauge("dylect_store_bytes",
			"Live store bytes at scrape time."),
	}
}

// Registry exposes the underlying registry (tests and custom exporters).
func (t *Telemetry) Registry() *telemetry.Registry { return t.reg }

// StoreObserver returns the hook to pass as harness.StoreOptions.Observer
// (or cellstore.Options.Observer) so store traffic feeds the counters.
func (t *Telemetry) StoreObserver() func(op, detail string) {
	return func(op, detail string) {
		t.storeOps.Inc(op)
		if op == "quarantine" {
			t.storeQuarantines.Inc(detail)
		}
	}
}

// observeCell feeds one settled cell. The server's settlement hook calls it
// when Options.Telemetry is set.
func (t *Telemetry) observeCell(s harness.CellSettlement) {
	class := ClassOf(s.Key)
	if s.Err != nil {
		code := harness.CellErrorCodeName(s.Err)
		if code == "" {
			code = "error"
		}
		t.cellFailures.Inc(class, code)
		return
	}
	switch s.Source {
	case harness.SourceStore:
		t.cells.Inc(class, "store")
		return
	case harness.SourceRemote:
		// Dispatched over the fabric: the wall time is dispatch latency
		// (remote simulation + transfer, while the cell holds its worker
		// slot), still worth a histogram.
		t.cells.Inc(class, "remote")
	default:
		// Simulated here, whether its warmup was recorded, restored or live.
		t.cells.Inc(class, "fresh")
	}
	t.cellSeconds.Observe(float64(s.WallNS)/1e9, class)
}

// observeBreaker feeds one breaker state entry. Installed as the breaker's
// transition hook by New.
func (t *Telemetry) observeBreaker(class, to string) {
	t.breakerTransitions.Inc(class, to)
}

// handleMetrics renders /metrics. Point-in-time gauges (queue, memory,
// breaker, store occupancy) are refreshed from their owners at scrape time;
// counters and histograms accumulate as events happen.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	t := s.tel
	running, queued, queuedCost, _ := s.adm.Stats()
	t.runningCost.Set(float64(running))
	t.queueDepth.Set(float64(queued))
	t.queueCost.Set(float64(queuedCost))
	t.memLevel.Set(float64(s.mem.Level()))
	t.breakerOpen.Set(float64(s.brk.openCount()))
	if s.opts.Checkpoint != nil {
		st := s.opts.Checkpoint.StoreStats()
		t.storeRecords.Set(float64(st.Records))
		t.storeBytes.Set(float64(st.Bytes))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	_, _ = t.reg.WriteTo(w)
}
