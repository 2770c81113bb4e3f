package harness

import (
	"fmt"

	"dylect/internal/stats"
	"dylect/internal/system"
)

// Ablations beyond the paper's figures, exercising the design choices
// DESIGN.md calls out: the gradual ML2→ML1→ML0 promotion policy versus
// direct-to-ML0 (the double-movement alternative of Section IV-A1), and the
// 5% counter sampling rate. The policy knobs are part of the cell key
// (CellSpec.DirectToML0 / CellSpec.SamplePeriod), so ablation runs are
// memoized and scheduled by the worker pool like every other cell.

// AblationGradual compares DyLeCT's gradual promotion against direct
// ML2→ML0 expansion (double page movement per expansion).
func AblationGradual(r *Runner) []string {
	t := stats.NewTable("Ablation: gradual ML2->ML1->ML0 promotion vs direct-to-ML0 expansion (high compression)",
		"Benchmark", "Gradual IPC", "Direct IPC", "Direct/Gradual", "Gradual mig MB", "Direct mig MB")
	var ratios []float64
	for _, wl := range r.sweepWorkloads() {
		grad := r.Design(wl, system.DesignDyLeCT, system.SettingHigh)
		c := cell(wl, system.DesignDyLeCT, system.SettingHigh)
		c.DirectToML0 = true
		direct := r.get(c)
		ratio := 0.0
		if grad.IPC > 0 {
			ratio = direct.IPC / grad.IPC
		}
		ratios = append(ratios, ratio)
		t.AddRow(wl, grad.IPC, direct.IPC, ratio,
			float64(grad.MigrationBytes)/1e6, float64(direct.MigrationBytes)/1e6)
	}
	t.AddRow("average", "", "", stats.GeoMean(ratios), "", "")
	t.AddRow("expected", "", "", "<1 (double movement costs bandwidth)", "", "")
	return []string{t.String()}
}

// AblationSampling sweeps the promotion counter sampling rate around the
// paper's 5% (1-in-20).
func AblationSampling(r *Runner) []string {
	t := stats.NewTable("Ablation: promotion-counter sampling period (high compression)",
		"Benchmark", "1-in-10", "1-in-20 (paper)", "1-in-80")
	periods := []uint64{10, 20, 80}
	for _, wl := range r.sweepWorkloads() {
		row := []interface{}{wl}
		for _, p := range periods {
			c := cell(wl, system.DesignDyLeCT, system.SettingHigh)
			c.SamplePeriod = p
			res := r.get(c)
			row = append(row, fmt.Sprintf("%.1f%%/%.4f", res.CTEHitRate*100, res.IPC))
		}
		t.AddRow(row...)
	}
	t.AddRow("(cells: CTE hit% / IPC)", "", "", "")
	return []string{t.String()}
}
