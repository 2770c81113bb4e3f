package fabric

import "dylect/internal/telemetry"

// Dispatch outcomes, the label taxonomy of dylect_fabric_dispatches_total.
// Stable strings: the chaos soak and the top cluster panel read them.
const (
	// OutcomeOK: the worker returned a verified payload.
	OutcomeOK = "ok"
	// OutcomeError: the worker answered with an error (cell failure or
	// rejection), or no request could be built for its URL.
	OutcomeError = "error"
	// OutcomeOrphaned: the worker died mid-flight — transport broke after
	// the request was sent or while its reply was read, the lease expired,
	// or the member was dropped or forgotten, which canceled the lease. The
	// cell is re-dispatched.
	OutcomeOrphaned = "orphaned"
	// OutcomeVerifyFailed: the response envelope failed sha256/schema/key
	// verification; the worker is told to re-verify (and so quarantine) its
	// copy and the cell is re-dispatched elsewhere.
	OutcomeVerifyFailed = "verify-failed"
	// OutcomeCanceled: the dispatch lost a hedge race (or the request went
	// away) and was canceled by the coordinator, not the worker.
	OutcomeCanceled = "canceled"
)

// Metrics are the fabric's exposition families, registered into the serving
// layer's registry so the coordinator's /metrics carries cluster health next
// to request health.
type Metrics struct {
	// Dispatches counts every completed dispatch by worker and outcome.
	Dispatches *telemetry.Counter
	// Hedges counts hedge events: "fired" when a straggler's duplicate is
	// launched, "won" when the duplicate settles the cell first.
	Hedges *telemetry.Counter
	// Orphans counts cells re-dispatched after their worker died mid-flight.
	Orphans *telemetry.Counter
	// RingSize is the live ring membership at scrape time.
	RingSize *telemetry.Gauge
	// WorkersKnown is the configured/known worker count at scrape time
	// (healthy or not); RingSize/WorkersKnown < 1 means degraded capacity.
	WorkersKnown *telemetry.Gauge
}

// NewMetrics registers the fabric families into reg.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		Dispatches: reg.NewCounter("dylect_fabric_dispatches_total",
			"Completed cell dispatches by worker and outcome (ok, error, orphaned, verify-failed, canceled).",
			"worker", "outcome"),
		Hedges: reg.NewCounter("dylect_fabric_hedges_total",
			"Hedged dispatches by event: fired (duplicate launched after the straggler delay) and won (duplicate settled the cell first).",
			"event"),
		Orphans: reg.NewCounter("dylect_fabric_orphans_total",
			"Cells re-dispatched after their worker died or hung mid-flight."),
		RingSize: reg.NewGauge("dylect_fabric_ring_workers",
			"Workers in the consistent-hash ring at scrape time."),
		WorkersKnown: reg.NewGauge("dylect_fabric_workers_known",
			"Workers known to the coordinator at scrape time, healthy or not."),
	}
}
