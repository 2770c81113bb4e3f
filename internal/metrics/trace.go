package metrics

import (
	"encoding/json"
	"fmt"

	"dylect/internal/engine"
)

// Chrome trace-event export (the JSON array format Perfetto and
// chrome://tracing load). Each simulated cell becomes one "process" whose
// name carries the workload/design/setting, so multi-design sweeps render
// as per-design tracks; inside a process each event category gets its own
// named thread track, and the interval samples are emitted as counter
// tracks ("C" phase) so level occupancy and IPC render as curves.

// TraceEvent is one entry of the Chrome trace-event format.
type TraceEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat,omitempty"`
	// Ph is the phase: "i" instant, "C" counter, "M" metadata.
	Ph string `json:"ph"`
	// TS is the event timestamp in microseconds.
	TS  float64 `json:"ts"`
	Pid int     `json:"pid"`
	Tid int     `json:"tid"`
	// S scopes instant events ("t" = thread).
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceDoc is the top-level Chrome trace JSON object.
type TraceDoc struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// CellTrace pairs one cell's name with its recorded data for export.
type CellTrace struct {
	// Name labels the cell's process track, e.g. "bfs/dylect/low".
	Name string
	Data *Data
}

// category tracks, in fixed tid order.
var traceTracks = []string{CatLevel, CatCTE, CatSpace, CatAudit, CatFault}

// tidOf maps an event category to its thread track id (1-based; 0 is the
// counter track).
func tidOf(cat string) int {
	for i, c := range traceTracks {
		if c == cat {
			return i + 1
		}
	}
	return len(traceTracks) + 1
}

// usOf converts a window-relative picosecond offset to trace microseconds.
func usOf(ps uint64) float64 {
	return float64(ps) / float64(engine.Microsecond)
}

// BuildTrace assembles the Chrome trace document for a set of cells. Cells
// are laid out in slice order (callers sort by cell key for deterministic
// bytes); pids are 1-based slice indices.
func BuildTrace(cells []CellTrace) *TraceDoc {
	doc := &TraceDoc{DisplayTimeUnit: "ms", TraceEvents: []TraceEvent{}}
	for i, cell := range cells {
		pid := i + 1
		doc.TraceEvents = append(doc.TraceEvents, TraceEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": cell.Name},
		})
		for _, cat := range traceTracks {
			doc.TraceEvents = append(doc.TraceEvents, TraceEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tidOf(cat),
				Args: map[string]any{"name": cat},
			})
		}
		if cell.Data == nil {
			continue
		}
		for _, s := range cell.Data.Samples {
			ts := usOf(s.TimePS)
			doc.TraceEvents = append(doc.TraceEvents,
				TraceEvent{Name: "occupancy", Ph: "C", TS: ts, Pid: pid, Tid: 0,
					Args: map[string]any{
						"ml0Bytes":  s.ML0Bytes,
						"ml1Bytes":  s.ML1Bytes,
						"ml2Bytes":  s.ML2Bytes,
						"freeBytes": s.FreeBytes,
					}},
				TraceEvent{Name: "ipc", Ph: "C", TS: ts, Pid: pid, Tid: 0,
					Args: map[string]any{"ipc": s.IPC}},
				TraceEvent{Name: "cteHitRate", Ph: "C", TS: ts, Pid: pid, Tid: 0,
					Args: map[string]any{"hitRate": s.CTEHitRate}},
			)
		}
		for _, e := range cell.Data.Events {
			te := TraceEvent{
				Name: e.Name, Cat: e.Cat, Ph: "i", S: "t",
				TS: usOf(e.TimePS), Pid: pid, Tid: tidOf(e.Cat),
			}
			args := make(map[string]any)
			if e.Unit != 0 || e.Cat == CatLevel {
				args["unit"] = e.Unit
			}
			if e.From != "" {
				args["from"] = e.From
			}
			if e.To != "" {
				args["to"] = e.To
			}
			if e.Reason != "" {
				args["reason"] = e.Reason
			}
			if e.Addr != 0 {
				args["addr"] = fmt.Sprintf("%#x", e.Addr)
			}
			if e.N != 0 {
				args["n"] = e.N
			}
			if len(args) > 0 {
				te.Args = args
			}
			doc.TraceEvents = append(doc.TraceEvents, te)
		}
		if cell.Data.Dropped > 0 {
			// Surface ring-buffer drops in the trace itself.
			doc.TraceEvents = append(doc.TraceEvents, TraceEvent{
				Name: "dropped-events", Ph: "i", S: "t", Pid: pid,
				Tid:  tidOf(""),
				TS:   0,
				Args: map[string]any{"dropped": cell.Data.Dropped},
			})
		}
	}
	return doc
}

// MarshalTrace renders the trace document as JSON bytes.
func MarshalTrace(cells []CellTrace) ([]byte, error) {
	return json.MarshalIndent(BuildTrace(cells), "", " ")
}
