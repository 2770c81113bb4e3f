package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dylect/internal/atomicio"
	"dylect/internal/cellstore"
	"dylect/internal/metrics"
	"dylect/internal/system"
)

// Checkpointing makes sweeps resumable and repeat sweeps cheap: every
// completed cell is persisted into a durable content-addressed store
// (internal/cellstore) keyed by (canonical config hash, cell key, simulator
// schema version). Each record embeds a SHA-256 over its canonical payload
// and is re-verified on every read, so a truncated, bit-flipped, or
// stale-schema record can never be served — it is quarantined (never
// deleted) and the cell is simply re-simulated. Because each cell's Result
// is a pure function of its key plus the Config (see pool.go) and records
// round-trip every Result field exactly, a resumed (or warm-restarted)
// export is byte-identical to an uninterrupted run's — that identity is the
// correctness oracle the chaos suite enforces.
//
// The manifest pins the canonical config hash and the simulator schema
// version. Hash comparison (not byte comparison of pretty-printed JSON)
// means an encoder or field-order change cannot reject a valid resume; the
// schema pin means a stale binary refuses to resume instead of serving
// another generation's records.

const manifestName = "manifest.json"

// checkpointManifest is the persisted identity of a checkpoint directory.
type checkpointManifest struct {
	// SchemaVersion pins the simulator generation (system.SchemaVersion).
	SchemaVersion string `json:"schemaVersion"`
	// ConfigHash is the canonical hash of the harness Config (ConfigHash).
	ConfigHash string `json:"configHash"`
	// Config is a human-readable copy for operators; comparisons never
	// read it.
	Config Config `json:"config"`
}

// StoreOptions tunes the durable store behind a checkpoint.
type StoreOptions struct {
	// MaxBytes bounds the store's disk use via LRU eviction; 0 = unbounded.
	MaxBytes int64
	// Log receives integrity warnings (quarantines, evictions, unreadable
	// records). Nil defaults to os.Stderr: a corrupt cell is re-simulated,
	// never fatal, but it must not be silent either.
	Log io.Writer
	// Observer, when set, receives one call per store operation ("hit",
	// "miss", "put", "eviction", "quarantine" + reason); see
	// cellstore.Options.Observer for the contract. The serving layer feeds
	// its /metrics counters from it.
	Observer func(op, detail string)
}

// Checkpoint is a thin view over the durable cell store: it owns the
// manifest handshake and the (Result, metrics) <-> payload mapping, and
// delegates persistence, integrity, quarantine, and eviction to the store.
// Safe for concurrent use by pool workers.
type Checkpoint struct {
	dir     string
	cfgHash string
	store   *cellstore.Store
	log     io.Writer
}

// OpenCheckpoint opens (or initializes) a checkpoint directory for cfg with
// default store options (unbounded, warnings to stderr).
func OpenCheckpoint(dir string, cfg Config) (*Checkpoint, error) {
	return OpenCheckpointStore(dir, cfg, StoreOptions{})
}

// OpenCheckpointStore opens (or initializes) a checkpoint directory for cfg.
// A directory created under a different Config, or by a different simulator
// schema generation, is rejected: resuming it would silently mix results
// from incompatible sweeps. Every record in the store is verified up front;
// corrupt ones are quarantined with a logged reason.
func OpenCheckpointStore(dir string, cfg Config, opts StoreOptions) (*Checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	logw := opts.Log
	if logw == nil {
		logw = os.Stderr
	}
	hash := ConfigHash(cfg)
	path := filepath.Join(dir, manifestName)
	if have, err := os.ReadFile(path); err == nil {
		var m checkpointManifest
		if err := json.Unmarshal(have, &m); err != nil || m.SchemaVersion == "" {
			return nil, fmt.Errorf("checkpoint: %s has a legacy or foreign manifest; refusing to resume (move the directory aside to start fresh)", dir)
		}
		if m.SchemaVersion != system.SchemaVersion {
			return nil, fmt.Errorf("checkpoint: %s was written by simulator schema %s; this binary speaks %s and refuses to resume (move the directory aside to start fresh)",
				dir, m.SchemaVersion, system.SchemaVersion)
		}
		if m.ConfigHash != hash {
			return nil, fmt.Errorf("checkpoint: %s was created for a different config; refusing to resume (delete the directory or match the original flags)", dir)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("checkpoint: manifest: %w", err)
	} else {
		m := checkpointManifest{SchemaVersion: system.SchemaVersion, ConfigHash: hash, Config: cfg}
		data, merr := json.MarshalIndent(&m, "", "  ")
		if merr != nil {
			return nil, fmt.Errorf("checkpoint: manifest: %w", merr)
		}
		if err := atomicio.WriteFile(path, data, 0o644); err != nil {
			return nil, fmt.Errorf("checkpoint: manifest: %w", err)
		}
	}
	store, err := cellstore.Open(cellstore.Options{
		Dir:      dir,
		Schema:   system.SchemaVersion,
		MaxBytes: opts.MaxBytes,
		Log:      logw,
		Observer: opts.Observer,
	})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Checkpoint{dir: dir, cfgHash: hash, store: store, log: logw}, nil
}

// Dir returns the checkpoint directory.
func (c *Checkpoint) Dir() string { return c.dir }

// StoreStats exposes the underlying store's integrity and traffic counters
// (verified/quarantined at open, hits, misses, evictions, bytes).
func (c *Checkpoint) StoreStats() cellstore.Stats { return c.store.Stats() }

// QuarantineLogPath returns the store's quarantine evidence log.
func (c *Checkpoint) QuarantineLogPath() string { return c.store.QuarantineLogPath() }

// Close releases the store's journal handle. Loads and stores after Close
// still work; only recency journaling stops.
func (c *Checkpoint) Close() error { return c.store.Close() }

// fileKey flattens the full normalized cell key into a stable name. Every
// key field participates (unlike CellKey, which elides defaults), so two
// distinct cells can never share a store record. The literal _r0 is the
// rank count, a key field in earlier builds that no cell ever set; it
// stays so their records keep their addresses.
func (k CellSpec) fileKey() string {
	name := fmt.Sprintf("%s_%s_%s_hp%t_cte%d_gran%d_grp%d_pcte%t_ptb%t_dml0%t_sp%d_r0",
		k.Workload, k.Design, k.Setting, k.HugePages, k.CTECacheBytes,
		k.Granularity, k.GroupSize, k.PerfectCTE, k.EmbedPTB,
		k.DirectToML0, k.SamplePeriod)
	return strings.ReplaceAll(name, string(os.PathSeparator), "-") + ".json"
}

// storeKey scopes a cell key to a config: the store address is
// content-derived from (config hash, cell key), and the schema version rides
// in the record envelope. A Checkpoint files records under it, and
// PayloadKey hands it to the fabric.
func (k CellSpec) storeKey(cfgHash string) string {
	return cfgHash + "/" + k.fileKey()
}

// cellRecord is the persisted payload of one cell: the Result plus its
// observability sidecar, checksummed together so a record can never pair a
// valid Result with a damaged metrics series.
type cellRecord struct {
	Result  *system.Result `json:"result"`
	Metrics *metrics.Data  `json:"metrics,omitempty"`
}

// Has reports whether a verified record for the cell existed at open (or
// was stored since) without reading it. FreshCost uses it to price warm
// cells as free; Load remains the only trusted read.
func (c *Checkpoint) Has(key CellSpec) bool { return c.store.Has(key.storeKey(c.cfgHash)) }

// Load restores a cell's persisted Result (and its observability sidecar,
// when one was recorded), reporting whether the Result exists. Every load
// re-verifies the record's checksum, schema, and key; a record failing any
// check is quarantined by the store and treated as missing — the cell is
// re-simulated with a warning, never a fatal error.
func (c *Checkpoint) Load(key CellSpec) (*system.Result, *metrics.Data, bool) {
	payload, ok := c.store.Get(key.storeKey(c.cfgHash))
	if !ok {
		return nil, nil, false
	}
	res, obs, err := decodeCellPayload(payload)
	if err != nil {
		// The checksum verified, so this is a schema drift the version pin
		// failed to catch, not corruption. Re-simulate; say why.
		fmt.Fprintf(c.log, "checkpoint: cell %s: verified record does not decode (%v); re-simulating\n", key.CellKey(), err)
		return nil, nil, false
	}
	return res, obs, true
}

// Store persists a completed cell crash-safely, together with its
// observability sidecar when the cell recorded metrics. The stored record
// carries only measurement fields: Opts is zeroed because it embeds
// workload generator internals that do not round-trip (and nothing
// downstream of the runner reads it).
func (c *Checkpoint) Store(key CellSpec, res *system.Result, obs *metrics.Data) error {
	payload, err := encodeCellPayload(res, obs)
	if err != nil {
		return fmt.Errorf("checkpoint: cell %s: %w", key.CellKey(), err)
	}
	return c.AdoptPayload(key, payload)
}

// AdoptPayload persists an already-encoded cell payload — the bytes a worker
// returned over the fabric, envelope-verified by the transport. Adopting
// instead of re-encoding keeps the store record byte-for-byte what a local
// run would have written, which is what makes remote re-dispatch idempotent
// and warm restarts byte-identical.
func (c *Checkpoint) AdoptPayload(key CellSpec, payload []byte) error {
	if err := c.store.Put(key.storeKey(c.cfgHash), payload); err != nil {
		return fmt.Errorf("checkpoint: cell %s: %w", key.CellKey(), err)
	}
	return nil
}

// ReverifyCell re-reads a cell's store record through the full verification
// path, quarantining it (via the store's own machinery) if it is damaged. It
// reports whether a verified record remains. The fabric's coordinator calls
// this on a worker whose returned envelope failed verification: if the
// worker's durable copy is the corrupt one, it must not survive to poison
// the next dispatch.
func (c *Checkpoint) ReverifyCell(spec CellSpec) bool {
	if spec.check() != nil {
		return false
	}
	_, ok := c.store.Get(spec.storeKey(c.cfgHash))
	return ok
}
