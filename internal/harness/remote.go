package harness

import (
	"context"
	"encoding/json"
	"fmt"

	"dylect/internal/metrics"
	"dylect/internal/system"
	"dylect/internal/trace"
)

// Remote execution: the distributed fabric (internal/fabric) moves single
// cells between processes, and this file is the harness's half of that
// contract. A CellSpec, the cell key itself, is the wire form; a
// RemoteExecutor turns a spec into the cell's canonical persisted payload
// (the same cellRecord JSON Checkpoint.Store writes). Because the payload a
// worker returns is byte-for-byte the payload a local run would have
// persisted, a coordinator that adopts it into its own store and re-exports
// through the unchanged export path produces output byte-identical to a
// single-process run — remote execution cannot change an exported byte, and
// re-dispatching a cell that already ran somewhere is idempotent by
// construction.

// PayloadKey returns the durable-store key a cell's payload is filed under:
// the canonical config hash scoping the key plus the flattened cell name.
// Coordinator and worker compute it independently from their own Config, so
// a verified envelope carrying any other key proves the two sides disagree.
func PayloadKey(cfgHash string, spec CellSpec) (string, error) {
	if err := spec.check(); err != nil {
		return "", err
	}
	return spec.storeKey(cfgHash), nil
}

// encodeCellPayload renders a completed cell as its canonical persisted
// payload. Checkpoint.Store and ExecuteCell must agree on these bytes — the
// byte-identity oracle compares store records produced by both.
func encodeCellPayload(res *system.Result, obs *metrics.Data) ([]byte, error) {
	rec := *res
	rec.Opts = system.Options{}
	return json.Marshal(&cellRecord{Result: &rec, Metrics: obs})
}

// decodeCellPayload is the inverse: it rejects payloads that parse but carry
// no Result, so a foreign (or empty) payload cannot settle a cell.
func decodeCellPayload(payload []byte) (*system.Result, *metrics.Data, error) {
	var rec cellRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, nil, fmt.Errorf("payload does not decode: %w", err)
	}
	if rec.Result == nil {
		return nil, nil, fmt.Errorf("payload carries no result")
	}
	return rec.Result, rec.Metrics, nil
}

// RemoteExecutor executes one cell out of process and returns its canonical
// payload bytes (already envelope-verified by the caller's transport). The
// context carries the dispatching cell's lease; implementations must honor
// it.
type RemoteExecutor func(ctx context.Context, spec CellSpec) ([]byte, error)

// SetRemoteExecutor routes cell execution through exec instead of the local
// simulator: a cell that misses the checkpoint is dispatched (still bounded
// by the jobs semaphore, which becomes the dispatch-parallelism limit) and
// its returned payload is decoded, adopted into the attached checkpoint, and
// memoized exactly as a local result would be. Retry, hedging, and failover
// belong to the executor — the runner treats its error as final. Nil
// restores local execution.
func (r *Runner) SetRemoteExecutor(exec RemoteExecutor) {
	r.mu.Lock()
	r.remote = exec
	r.mu.Unlock()
}

// remoteCell dispatches one cell through the installed executor and settles
// it from the returned payload.
func (r *Runner) remoteCell(ctx context.Context, key CellSpec, exec RemoteExecutor, cp *Checkpoint) (*system.Result, *metrics.Data, error) {
	payload, err := exec(ctx, key)
	if err != nil {
		return nil, nil, fmt.Errorf("harness: cell %s: %w", key.CellKey(), err)
	}
	res, obs, err := decodeCellPayload(payload)
	if err != nil {
		return nil, nil, fmt.Errorf("harness: cell %s: remote %w", key.CellKey(), err)
	}
	if cp != nil {
		if err := cp.AdoptPayload(key, payload); err != nil {
			return nil, nil, err
		}
	}
	return res, obs, nil
}

// ExecuteCell runs one remotely-requested cell through the normal
// single-flight path — jobs semaphore, watchdog, retries, checkpoint,
// observers all apply — and returns its canonical payload bytes. It is the
// worker-side entry point of the fabric protocol; ctx bounds the wait the
// same way a request-scoped view's context does.
func (r *Runner) ExecuteCell(ctx context.Context, spec CellSpec) ([]byte, error) {
	if err := spec.check(); err != nil {
		return nil, err
	}
	res, obs, err := r.WithContext(ctx).resultObs(r.normalize(spec))
	if err != nil {
		return nil, err
	}
	return encodeCellPayload(res, obs)
}

// Admits reports whether a worker should run spec: spec is, as sent, a
// cell that some plan of the runner's config contains (admissible). Planned
// cells are normalized, so an admitted spec is in normal form and names the
// record's store key (PayloadKey, Checkpoint.ReverifyCell); another
// spelling of the same cell is refused, as a coordinator never sends one. A
// worker refuses any other spec before the runner sees it, so a peer cannot
// make it simulate, and memoize for good, cells that no coordinator would
// send.
func (r *Runner) Admits(spec CellSpec) bool {
	r.domain.once.Do(func() { r.domain.cells = admissible(r.Cfg) })
	return r.domain.cells[spec]
}

// admissible is the union, over every known workload w, of the cells the
// registered experiments plan for cfg with Workloads = [w]. ConfigHash
// leaves the workload list out, so a coordinator under the same hash may
// plan any list; and a list of four or fewer runs every sweep over each of
// its workloads (sweepWorkloads), so the single-workload plans hold the
// cells of every list.
func admissible(cfg Config) map[CellSpec]bool {
	cells := map[CellSpec]bool{}
	for _, w := range trace.Names() {
		cfg.Workloads = []string{w}
		for _, c := range planCells(cfg, Experiments()) {
			cells[c] = true
		}
	}
	return cells
}
