package harness

import (
	"encoding/json"
	"sort"

	"dylect/internal/system"
)

// RawResult is the JSON-exportable record of one memoized simulation, for
// downstream plotting.
type RawResult struct {
	Workload string `json:"workload"`
	Design   string `json:"design"`
	Setting  string `json:"setting"`

	HugePages     bool   `json:"hugePages"`
	CTECacheBytes int    `json:"cteCacheBytes"`
	Granularity   uint64 `json:"granularity"`
	GroupSize     uint64 `json:"groupSize"`
	PerfectCTE    bool   `json:"perfectCTE,omitempty"`
	EmbedPTB      bool   `json:"embedPTB,omitempty"`
	DirectToML0   bool   `json:"directToML0,omitempty"`
	SamplePeriod  uint64 `json:"samplePeriod,omitempty"`
	Ranks         int    `json:"ranks,omitempty"`

	IPC             float64 `json:"ipc"`
	Insts           uint64  `json:"instructions"`
	CTEHitRate      float64 `json:"cteHitRate"`
	PreGatheredRate float64 `json:"preGatheredRate"`
	UnifiedRate     float64 `json:"unifiedRate"`
	CTEBlockFetches uint64  `json:"cteBlockFetches"`
	ReadLatencyNS   float64 `json:"mcReadLatencyNS"`
	TLBMissRate     float64 `json:"tlbMissRate"`

	WalkDRAMRefs       uint64  `json:"walkDRAMRefs"`
	WalkerCacheHitRate float64 `json:"walkerCacheHitRate"`
	WalkRefsPerWalk    float64 `json:"walkRefsPerWalk"`

	ML0 uint64 `json:"ml0Pages"`
	ML1 uint64 `json:"ml1Pages"`
	ML2 uint64 `json:"ml2Pages"`

	TrafficBytes     uint64  `json:"trafficBytes"`
	CTETrafficBytes  uint64  `json:"cteTrafficBytes"`
	MigrationBytes   uint64  `json:"migrationBytes"`
	EnergyPerInstPJ  float64 `json:"energyPerInstPJ"`
	BusUtilization   float64 `json:"busUtilization"`
	DRAMRowHitRate   float64 `json:"dramRowHitRate"`
	CompressionRatio float64 `json:"compressionRatio"`

	Expansions      uint64 `json:"expansions"`
	Compressions    uint64 `json:"compressions"`
	Promotions      uint64 `json:"promotions"`
	Demotions       uint64 `json:"demotions"`
	Displacements   uint64 `json:"displacements"`
	EmergencyStalls uint64 `json:"emergencyStalls"`
	PressureStuck   uint64 `json:"pressureStuck"`
}

// settled reports whether a flight has finished, successfully or not. A
// planning entry, never simulated, has no done channel; a running flight's
// is still open. Callers must hold r.mu.
func settled(f *flight) bool {
	if f.done == nil {
		return false
	}
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// settledOK reports whether a flight completed successfully. Callers must
// hold r.mu.
func settledOK(f *flight) bool { return settled(f) && f.err == nil && f.res != nil }

// rawOf flattens one completed cell into its exportable record.
func rawOf(k runKey, res *system.Result) RawResult {
	return RawResult{
		Workload:      k.workload,
		Design:        k.design.String(),
		Setting:       k.setting.String(),
		HugePages:     k.hugePages,
		CTECacheBytes: k.cteCacheBytes,
		Granularity:   k.granularity,
		GroupSize:     k.groupSize,
		PerfectCTE:    k.perfectCTE,
		EmbedPTB:      k.embedPTB,
		DirectToML0:   k.directToML0,
		SamplePeriod:  k.samplePeriod,
		Ranks:         k.ranks,

		IPC:             res.IPC,
		Insts:           res.Insts,
		CTEHitRate:      res.CTEHitRate,
		PreGatheredRate: res.PreGatheredRate,
		UnifiedRate:     res.UnifiedRate,
		CTEBlockFetches: res.CTEBlockFetches,
		ReadLatencyNS:   res.ReadLatencyNS,
		TLBMissRate:     res.TLBMissRate,

		WalkDRAMRefs:       res.WalkDRAMRefs,
		WalkerCacheHitRate: res.WalkerCacheHitRate,
		WalkRefsPerWalk:    res.WalkRefsPerWalk,

		ML0: res.ML0, ML1: res.ML1, ML2: res.ML2,

		TrafficBytes:     res.TrafficBytes,
		CTETrafficBytes:  res.CTETrafficBytes,
		MigrationBytes:   res.MigrationBytes,
		EnergyPerInstPJ:  res.EnergyPerInst(),
		BusUtilization:   res.BusUtilization,
		DRAMRowHitRate:   res.DRAMRowHitRate,
		CompressionRatio: res.CompressionRatio,

		Expansions:      res.Expansions,
		Compressions:    res.Compressions,
		Promotions:      res.Promotions,
		Demotions:       res.Demotions,
		Displacements:   res.Displacements,
		EmergencyStalls: res.EmergencyStalls,
		PressureStuck:   res.PressureStuck,
	}
}

// lessRaw is the total order over every key field used by both exporters:
// two records can only compare equal if their cells are identical, so the
// sort (and the bytes) cannot depend on map iteration or completion order.
func lessRaw(a, b RawResult) bool {
	switch {
	case a.Workload != b.Workload:
		return a.Workload < b.Workload
	case a.Design != b.Design:
		return a.Design < b.Design
	case a.Setting != b.Setting:
		return a.Setting < b.Setting
	case a.CTECacheBytes != b.CTECacheBytes:
		return a.CTECacheBytes < b.CTECacheBytes
	case a.Granularity != b.Granularity:
		return a.Granularity < b.Granularity
	case a.GroupSize != b.GroupSize:
		return a.GroupSize < b.GroupSize
	case a.HugePages != b.HugePages:
		return !a.HugePages
	case a.PerfectCTE != b.PerfectCTE:
		return !a.PerfectCTE
	case a.EmbedPTB != b.EmbedPTB:
		return !a.EmbedPTB
	case a.DirectToML0 != b.DirectToML0:
		return !a.DirectToML0
	case a.SamplePeriod != b.SamplePeriod:
		return a.SamplePeriod < b.SamplePeriod
	default:
		return a.Ranks < b.Ranks
	}
}

// ExportJSON serializes every completed simulation, sorted deterministically
// over the full cell key so the bytes are identical regardless of how many
// jobs produced the cells or in what order they finished.
func (r *Runner) ExportJSON() ([]byte, error) {
	r.mu.Lock()
	out := make([]RawResult, 0, len(r.cache))
	for k, f := range r.cache {
		if !settledOK(f) {
			continue
		}
		out = append(out, rawOf(k, f.res))
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return lessRaw(out[i], out[j]) })
	return json.MarshalIndent(out, "", "  ")
}

// ExportJSONFor serializes the completed cells of the given experiment
// list — exactly the cells a dry-run plan of exps yields — in the same
// schema and sort order as ExportJSON. A service uses it to scope one
// request's results on a runner whose cache is shared with other requests;
// cells that failed or never started (deadline, load shedding) are simply
// absent, which is the same partial-result schema the CLI exports on
// SIGINT.
func (r *Runner) ExportJSONFor(exps []Experiment) ([]byte, error) {
	plan := planCells(r.Cfg, exps)
	r.mu.Lock()
	out := make([]RawResult, 0, len(plan))
	for _, k := range plan {
		if f, ok := r.cache[k]; ok && settledOK(f) {
			out = append(out, rawOf(k, f.res))
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return lessRaw(out[i], out[j]) })
	return json.MarshalIndent(out, "", "  ")
}
