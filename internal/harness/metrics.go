package harness

import (
	"bytes"
	"encoding/json"
	"sort"

	"dylect/internal/metrics"
)

// Observability exports. Like ExportJSON, every export here is sorted by a
// total order over the full cell key (fileKey includes every field), so the
// bytes are identical regardless of how many jobs produced the cells or in
// what order they finished. Profiling data (wall time, RSS) is inherently
// nondeterministic and therefore lives only in ExportProfileJSON — never in
// the deterministic exports.

// MetricsRow is one NDJSON line of ExportMetricsNDJSON: one interval sample
// tagged with its cell. Cell is the human-readable key (CellKey, which
// elides default knobs); Key is the full unique cell key (fileKey).
type MetricsRow struct {
	Cell string `json:"cell"`
	Key  string `json:"key"`
	metrics.Sample
}

// completedKeysLocked returns the keys of every successfully completed cell,
// sorted by full cell key. Callers must hold r.mu.
func (r *Runner) completedKeysLocked() []CellSpec {
	keys := make([]CellSpec, 0, len(r.cache))
	for k, f := range r.cache {
		if settledOK(f) {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].fileKey() < keys[j].fileKey() })
	return keys
}

// ExportMetricsNDJSON serializes every completed cell's interval samples as
// newline-delimited JSON, one sample per line, cells in key order. Cells
// without recorded metrics (metrics off, or the no-sampling config) emit
// nothing.
func (r *Runner) ExportMetricsNDJSON() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var buf bytes.Buffer
	for _, k := range r.completedKeysLocked() {
		f := r.cache[k]
		if f.obs == nil {
			continue
		}
		cell, fk := k.CellKey(), k.fileKey()
		for _, s := range f.obs.Samples {
			line, err := json.Marshal(MetricsRow{Cell: cell, Key: fk, Sample: s})
			if err != nil {
				return nil, err
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes(), nil
}

// ExportTraceJSON serializes every completed cell's recorded events and
// counter samples as one Chrome trace-event JSON document (loadable in
// Perfetto or chrome://tracing); each cell becomes a named process track.
func (r *Runner) ExportTraceJSON() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var cells []metrics.CellTrace
	for _, k := range r.completedKeysLocked() {
		f := r.cache[k]
		if f.obs == nil {
			continue
		}
		cells = append(cells, metrics.CellTrace{Name: k.CellKey(), Data: f.obs})
	}
	return metrics.MarshalTrace(cells)
}

// ProfileRow is one cell's wall-clock profile. WallMS is the cell's
// execution time, the time it held a worker slot, so the wait for a slot is
// not in it; a store hit's is its load time. PeakRSSKB is the process
// high-water mark at cell completion, so it is monotone across rows rather
// than per-cell-exclusive. On Linux it is getrusage's ru_maxrss: it tracks
// /proc/self/status's VmHWM within the kernel's per-thread RSS counter
// slack, and it also counts the image the process replaced at exec (the go
// command, under go run). Other platforms report 0.
type ProfileRow struct {
	Cell      string  `json:"cell"`
	Key       string  `json:"key"`
	WallMS    float64 `json:"wallMS"`
	PeakRSSKB uint64  `json:"peakRSSKB"`
}

// ExportProfileJSON serializes per-cell wall time and peak RSS from each
// completed cell's settlement record (CellSettlement). This export
// is intentionally separate from ExportJSON: wall time varies run to run,
// and mixing it into the deterministic export would break byte-compare
// guarantees.
func (r *Runner) ExportProfileJSON() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := []ProfileRow{}
	for _, k := range r.completedKeysLocked() {
		f := r.cache[k]
		out = append(out, ProfileRow{
			Cell:      k.CellKey(),
			Key:       k.fileKey(),
			WallMS:    float64(f.report.WallNS) / 1e6,
			PeakRSSKB: f.report.PeakRSSKB,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}
