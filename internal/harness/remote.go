package harness

import (
	"context"
	"encoding/json"
	"fmt"

	"dylect/internal/metrics"
	"dylect/internal/system"
)

// Remote execution: the distributed fabric (internal/fabric) moves single
// cells between processes, and this file is the harness's half of that
// contract. A CellSpec is the wire form of a fully-normalized cell key; a
// RemoteExecutor turns a spec into the cell's canonical persisted payload
// (the same cellRecord JSON Checkpoint.Store writes). Because the payload a
// worker returns is byte-for-byte the payload a local run would have
// persisted, a coordinator that adopts it into its own store and re-exports
// through the unchanged export path produces output byte-identical to a
// single-process run — remote execution cannot change an exported byte, and
// re-dispatching a cell that already ran somewhere is idempotent by
// construction.

// CellSpec is the exported, JSON-serializable identity of one cell. Every
// runKey field participates, so two distinct cells can never share a spec.
// Specs produced by the harness are fully normalized; the executing side
// re-normalizes defensively so a hand-built spec with zeroed knobs still
// lands on the canonical key.
type CellSpec struct {
	Workload      string `json:"workload"`
	Design        string `json:"design"`
	Setting       string `json:"setting"`
	HugePages     bool   `json:"hugePages"`
	CTECacheBytes int    `json:"cteCacheBytes"`
	Granularity   uint64 `json:"granularity"`
	GroupSize     uint64 `json:"groupSize"`
	PerfectCTE    bool   `json:"perfectCTE"`
	Ranks         int    `json:"ranks"`
	EmbedPTB      bool   `json:"embedPTB"`
	DirectToML0   bool   `json:"directToML0"`
	SamplePeriod  uint64 `json:"samplePeriod"`
}

// CellKey renders the spec in runKey.String form — the key the breaker,
// telemetry, and fault-injection hooks all speak.
func (s CellSpec) CellKey() string {
	k, err := s.runKey()
	if err != nil {
		return fmt.Sprintf("%s/%s/%s", s.Workload, s.Design, s.Setting)
	}
	return k.String()
}

func specOf(k runKey) CellSpec {
	return CellSpec{
		Workload:      k.workload,
		Design:        k.design.String(),
		Setting:       k.setting.String(),
		HugePages:     k.hugePages,
		CTECacheBytes: k.cteCacheBytes,
		Granularity:   k.granularity,
		GroupSize:     k.groupSize,
		PerfectCTE:    k.perfectCTE,
		Ranks:         k.ranks,
		EmbedPTB:      k.embedPTB,
		DirectToML0:   k.directToML0,
		SamplePeriod:  k.samplePeriod,
	}
}

func parseDesign(s string) (system.Design, error) {
	for _, d := range []system.Design{system.DesignNoComp, system.DesignTMCC, system.DesignDyLeCT, system.DesignNaive} {
		if d.String() == s {
			return d, nil
		}
	}
	return 0, fmt.Errorf("harness: unknown design %q", s)
}

func parseSetting(s string) (system.Setting, error) {
	for _, st := range []system.Setting{system.SettingLow, system.SettingHigh, system.SettingNone} {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("harness: unknown setting %q", s)
}

func (s CellSpec) runKey() (runKey, error) {
	d, err := parseDesign(s.Design)
	if err != nil {
		return runKey{}, err
	}
	st, err := parseSetting(s.Setting)
	if err != nil {
		return runKey{}, err
	}
	if s.Workload == "" {
		return runKey{}, fmt.Errorf("harness: cell spec has no workload")
	}
	return runKey{
		workload: s.Workload,
		design:   d,
		setting:  st,
		variant: variant{
			hugePages:     s.HugePages,
			cteCacheBytes: s.CTECacheBytes,
			granularity:   s.Granularity,
			groupSize:     s.GroupSize,
			perfectCTE:    s.PerfectCTE,
			ranks:         s.Ranks,
			embedPTB:      s.EmbedPTB,
			directToML0:   s.DirectToML0,
			samplePeriod:  s.SamplePeriod,
		},
	}, nil
}

// PayloadKey returns the durable-store key a cell's payload is filed under:
// the canonical config hash scoping the key plus the flattened cell name.
// Coordinator and worker compute it independently from their own Config, so
// a verified envelope carrying any other key proves the two sides disagree.
func PayloadKey(cfgHash string, spec CellSpec) (string, error) {
	k, err := spec.runKey()
	if err != nil {
		return "", err
	}
	return k.storeKey(cfgHash), nil
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
func (r *Runner) remoteCell(ctx context.Context, key runKey, exec RemoteExecutor, cp *Checkpoint) (*system.Result, *metrics.Data, error) {
	payload, err := exec(ctx, specOf(key))
	if err != nil {
		return nil, nil, fmt.Errorf("harness: cell %s: %w", key, err)
	}
	res, obs, err := decodeCellPayload(payload)
	if err != nil {
		return nil, nil, fmt.Errorf("harness: cell %s: remote %w", key, err)
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
	key, err := spec.runKey()
	if err != nil {
		return nil, err
	}
	key.variant = r.normalize(key.variant)
	view := r.WithContext(ctx)
	res, obs, err := view.resultObs(key)
	if err != nil {
		return nil, err
	}
	return encodeCellPayload(res, obs)
}
