package harness

import (
	"dylect/internal/stats"
	"dylect/internal/system"
)

// Motivation reproduces the argument of Section III-A: TMCC's primary
// translation optimization — embedding truncated CTEs in page-table blocks
// — only helps when page walks are frequent. Under 4KB pages it recovers a
// large share of the CTE misses; under 2MB huge pages walks are ~20x rarer
// and the optimization cannot fire, leaving TMCC exposed to the translation
// problem DyLeCT solves. The embed knob is part of the cell key
// (CellSpec.EmbedPTB), so all four cells per workload are memoized.
func Motivation(r *Runner) []string {
	t := stats.NewTable("Section III-A: TMCC's PTB embedding helps under 4KB pages, not under 2MB",
		"Benchmark", "4K hit%", "4K+embed hit%", "embed hints/walk(4K)", "2M hit%", "2M+embed hit%")
	run := func(wl string, huge, embed bool) *system.Result {
		c := cell(wl, system.DesignTMCC, system.SettingHigh)
		c.HugePages, c.EmbedPTB = huge, embed
		return r.get(c)
	}
	for _, wl := range r.sweepWorkloads() {
		p4 := run(wl, false, false)
		p4e := run(wl, false, true)
		p2 := run(wl, true, false)
		p2e := run(wl, true, true)
		hintsPerWalk := 0.0
		if p4e.Walks > 0 {
			hintsPerWalk = float64(p4e.WalkHints) / float64(p4e.Walks)
		}
		t.AddRow(wl, p4.CTEHitRate*100, p4e.CTEHitRate*100, hintsPerWalk,
			p2.CTEHitRate*100, p2e.CTEHitRate*100)
	}
	t.AddRow("expected", "", "embed > plain", ">0", "", "≈ same (walks rare)")
	return []string{t.String()}
}
