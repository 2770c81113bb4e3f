package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"dylect/internal/cellstore"
	"dylect/internal/harness"
	"dylect/internal/serve"
)

// Wire protocol. A worker is a normal dylect-served process with one extra
// endpoint: POST /fabric/v1/cell executes a single cell through the normal
// runner path (pool semaphore, watchdog, retries, checkpoint, breaker
// observers) and returns it wrapped in the cellstore envelope, so the
// coordinator can verify schema, key, and checksum before trusting a byte.
// POST /fabric/v1/verify makes the worker re-read (and, if damaged,
// quarantine) its durable copy of a cell the coordinator could not verify.

const (
	// CellPath executes one cell.
	CellPath = "/fabric/v1/cell"
	// VerifyPath re-verifies a cell's durable record.
	VerifyPath = "/fabric/v1/verify"
	// JoinPath / LeavePath are coordinator endpoints: workers announce
	// membership changes there.
	JoinPath  = "/fabric/v1/join"
	LeavePath = "/fabric/v1/leave"

	// CodeConfigMismatch rejects a dispatch whose config hash or schema does
	// not match the worker's: executing it would file the result under a key
	// the coordinator cannot verify. Not retryable on the same worker.
	CodeConfigMismatch = "config_mismatch"
)

// CellRequest is the coordinator -> worker dispatch body.
type CellRequest struct {
	Spec harness.CellSpec `json:"spec"`
	// ConfigHash and Schema pin the sweep identity: both sides must run the
	// identical Config and simulator generation or the content addresses
	// disagree.
	ConfigHash string `json:"configHash"`
	Schema     string `json:"schema"`
}

// MemberRequest is the worker -> coordinator join/leave body.
type MemberRequest struct {
	// Worker is the worker's base URL as the coordinator should dial it.
	Worker string `json:"worker"`
}

// WorkerOptions wires a worker handler to its host process.
type WorkerOptions struct {
	// Runner executes cells; usually the serve.Server's runner so dispatched
	// cells share the store, cache, breaker observers, and telemetry with
	// directly-served requests.
	Runner *harness.Runner
	// Checkpoint, when set, serves /fabric/v1/verify re-verification.
	Checkpoint *harness.Checkpoint
	// ConfigHash and Schema are this worker's sweep identity.
	ConfigHash string
	Schema     string
	// Ready gates dispatch admission (serve.Server.Ready); nil = always.
	Ready func() bool
	// Log receives dispatch logging; nil discards.
	Log *slog.Logger
}

// Worker serves the fabric's worker endpoints.
type Worker struct {
	opts     WorkerOptions
	log      *slog.Logger
	clock    func() time.Time
	inflight serve.InFlight
}

// NewWorker builds the worker-side handler set.
func NewWorker(opts WorkerOptions) *Worker {
	log := opts.Log
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Worker{opts: opts, log: log, clock: time.Now}
}

// Register mounts the worker endpoints on mux.
func (w *Worker) Register(mux *http.ServeMux) {
	mux.HandleFunc(CellPath, w.handleCell)
	mux.HandleFunc(VerifyPath, w.handleVerify)
}

// Drain blocks until in-flight cell dispatches finish or ctx expires,
// reporting whether the drain was clean: an idle worker drains clean even
// when ctx has already expired. New dispatches are rejected once Ready
// flips false, so this converges.
func (w *Worker) Drain(ctx context.Context) bool { return w.inflight.Drain(ctx) }

func (w *Worker) handleCell(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		serve.WriteError(rw, http.StatusMethodNotAllowed, serve.CodeBadRequest, "POST only", 0)
		return
	}
	if w.opts.Ready != nil && !w.opts.Ready() {
		serve.WriteError(rw, http.StatusServiceUnavailable, serve.CodeDraining, "worker is draining", time.Second)
		return
	}
	var cr CellRequest
	if err := decodeBody(rw, req, &cr); err != nil {
		serve.WriteError(rw, http.StatusBadRequest, serve.CodeBadRequest, "bad cell request: "+err.Error(), 0)
		return
	}
	if cr.ConfigHash != w.opts.ConfigHash || cr.Schema != w.opts.Schema {
		serve.WriteError(rw, http.StatusConflict, CodeConfigMismatch,
			fmt.Sprintf("dispatch pins config %.12s schema %q; worker runs config %.12s schema %q",
				cr.ConfigHash, cr.Schema, w.opts.ConfigHash, w.opts.Schema), 0)
		return
	}
	key, err := harness.PayloadKey(w.opts.ConfigHash, cr.Spec)
	if err != nil {
		serve.WriteError(rw, http.StatusBadRequest, serve.CodeBadRequest, err.Error(), 0)
		return
	}

	w.inflight.Add()
	defer w.inflight.Done()
	start := w.clock()
	payload, err := w.opts.Runner.ExecuteCell(req.Context(), cr.Spec)
	if err != nil {
		code := harness.CellErrorCodeName(err)
		status := http.StatusInternalServerError
		if code == "canceled" {
			status = http.StatusServiceUnavailable
		}
		w.log.Warn("fabric cell failed", "cell", cr.Spec.CellKey(), "code", code, "err", err)
		serve.WriteError(rw, status, code, err.Error(), 0)
		return
	}
	env, err := cellstore.EncodeEnvelope(w.opts.Schema, key, payload)
	if err != nil {
		serve.WriteError(rw, http.StatusInternalServerError, "encode", err.Error(), 0)
		return
	}
	w.log.Info("fabric cell served", "cell", cr.Spec.CellKey(),
		"bytes", len(env), "wall_ms", w.clock().Sub(start).Milliseconds())
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(http.StatusOK)
	rw.Write(env)
}

func (w *Worker) handleVerify(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		serve.WriteError(rw, http.StatusMethodNotAllowed, serve.CodeBadRequest, "POST only", 0)
		return
	}
	var cr CellRequest
	if err := decodeBody(rw, req, &cr); err != nil {
		serve.WriteError(rw, http.StatusBadRequest, serve.CodeBadRequest, "bad verify request: "+err.Error(), 0)
		return
	}
	ok := false
	if w.opts.Checkpoint != nil {
		// Get re-verifies the record end to end and quarantines a damaged
		// one through the store's own evidence-preserving machinery.
		ok = w.opts.Checkpoint.ReverifyCell(cr.Spec)
	}
	w.log.Warn("fabric verify requested", "cell", cr.Spec.CellKey(), "verified", ok)
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(map[string]bool{"verified": ok})
}

// decodeBody decodes a peer's JSON request body into v, reading at most
// serve.MaxRequestBytes of it.
func decodeBody(rw http.ResponseWriter, req *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(rw, req.Body, serve.MaxRequestBytes)).Decode(v)
}
