package harness

import (
	"fmt"

	"dylect/internal/stats"
	"dylect/internal/system"
	"dylect/internal/trace"
)

// Table1 regenerates the prior-work contrast table. The DyLeCT row's
// numbers are measured from this harness's runs; prior-work rows reproduce
// the paper's reported numbers for context.
func Table1(r *Runner) []string {
	t := stats.NewTable("Table 1: Contrasting DyLeCT with prior works",
		"Design", "Comp. ratio", "Perf. improvement", "Modifications")
	t.AddRow("RMC [7]", "1.30x", "N/A", "MC")
	t.AddRow("LCP [33]", "1.69x", "+6% vs RMC", "MC, TLBs")
	t.AddRow("Compresso [6]", "1.85x", "+6% vs LCP", "MC")
	t.AddRow("TMCC [27]", "3.40x", "+14% vs Compresso", "MC, L2$")

	var speedups, ratios []float64
	for _, wl := range r.workloads() {
		for _, s := range []system.Setting{system.SettingLow, system.SettingHigh} {
			dy := r.Design(wl, system.DesignDyLeCT, s)
			tm := r.Design(wl, system.DesignTMCC, s)
			if tm.IPC > 0 {
				speedups = append(speedups, dy.IPC/tm.IPC)
			}
			ratios = append(ratios, dy.CompressionRatio)
		}
	}
	imp := (stats.GeoMean(speedups) - 1) * 100
	t.AddRow("This work (measured)",
		fmt.Sprintf("%.2fx (max model)", stats.Mean(ratios)),
		fmt.Sprintf("%+.2f%% vs TMCC (paper: +10.25%%)", imp),
		"MC")
	return []string{t.String()}
}

// Table2 regenerates the benchmark/DRAM-size table at this harness's scale.
func Table2(r *Runner) []string {
	t := stats.NewTable(
		fmt.Sprintf("Table 2: Benchmarks and DRAM sizes (scale 1/%d of paper-relative footprints)",
			r.Cfg.ScaleDivisor),
		"Benchmark", "Footprint(MB)", "DRAM@LowComp(MB)", "DRAM@HighComp(MB)")
	for _, wl := range r.workloads() {
		w, _ := trace.ByName(wl)
		foot := w.FootprintBytes / r.Cfg.ScaleDivisor
		if floor := r.Cfg.FootprintFloor; floor != 0 && foot < floor && floor < w.FootprintBytes {
			foot = floor
		}
		t.AddRow(wl, foot>>20,
			uint64(float64(foot)*w.LowDRAMFrac)>>20,
			uint64(float64(foot)*w.HighDRAMFrac)>>20)
	}
	return []string{t.String()}
}

// Table3 prints the simulated microarchitecture parameters.
func Table3(*Runner) []string {
	cfg := system.Default()
	t := stats.NewTable("Table 3: Simulated microarchitecture parameters", "Component", "Value")
	t.AddRow("CPU", fmt.Sprintf("%d cores, 2.8GHz, %d-wide OoO, TLB: %d entries",
		cfg.Cores, cfg.Width, cfg.TLBEntries))
	t.AddRow("L1D$", fmt.Sprintf("%dKB, %d-way, %d CPU clk", cfg.L1.SizeBytes>>10, cfg.L1.Assoc,
		cfg.L1Lat/cfg.CyclePS))
	t.AddRow("L2$", fmt.Sprintf("%dKB, %d-way, %d CPU clk", cfg.L2.SizeBytes>>10, cfg.L2.Assoc,
		cfg.L2Lat/cfg.CyclePS))
	t.AddRow("L3$", fmt.Sprintf("%dMB shared, %d-way, %d CPU clk", cfg.L3.SizeBytes>>20,
		cfg.L3.Assoc, cfg.L3Lat/cfg.CyclePS))
	t.AddRow("Walker cache", fmt.Sprintf("%dB per core", cfg.WalkerCacheBytes))
	t.AddRow("Prefetchers", "Next-line w/ auto enable/disable (L1), stride deg 2 (L1), deg 4 (L2)")
	t.AddRow("Memory", "DDR4-3200, 1 channel, 8 ranks, FR-FCFS w/ bank fairness + row hit cap")
	t.AddRow("DRAM timing", "tCL=tRCD=tRP=13.75ns")
	t.AddRow("CTE cache", "128KB, 8-way; DyLeCT: 1MB reach/pre-gathered block, 32KB reach/unified block")
	t.AddRow("CTE$ hit latency", "2 memory clk (1.25ns)")
	t.AddRow("Compression ASIC", "280ns per 4KB (DEFLATE-class)")
	return []string{t.String()}
}

// pageSize4K runs the no-compression system under 4KB pages with the
// standard warmup, isolating the steady-state translation cost that 2MB
// pages remove. (The paper's 1.75x also folds in faster allocation over
// whole-program runs; a steady-state window captures the translation half.)
func (r *Runner) pageSize4K(wl string) *system.Result {
	c := cell(wl, system.DesignNoComp, system.SettingNone)
	c.HugePages = false
	return r.get(c)
}

// Fig3 regenerates the huge-page speedup study on the (simulated) system
// without compression.
func Fig3(r *Runner) []string {
	t := stats.NewTable("Figure 3: Speedup of 2MB huge pages over 4KB pages (no compression, steady state)",
		"Benchmark", "Speedup", "TLBMiss%@4K", "TLBMiss%@2M", "Paper")
	var speedups []float64
	for _, wl := range r.workloads() {
		w, _ := trace.ByName(wl)
		r4 := r.pageSize4K(wl)
		r2 := r.Baseline(wl)
		sp := 0.0
		if r4.IPC > 0 {
			sp = r2.IPC / r4.IPC
		}
		speedups = append(speedups, sp)
		t.AddRow(wl, sp, r4.TLBMissRate*100, r2.TLBMissRate*100,
			fmt.Sprintf("%.2fx", w.PaperHugePageSpeedup))
	}
	t.AddRow("average", stats.GeoMean(speedups), "", "", "1.75x")
	return []string{t.String()}
}

// Fig4 regenerates TMCC's performance normalized to a bigger memory with no
// compression, at both compression settings.
func Fig4(r *Runner) []string {
	t := stats.NewTable("Figure 4: TMCC performance normalized to no compression",
		"Benchmark", "LowComp", "HighComp")
	var lows, highs []float64
	for _, wl := range r.workloads() {
		base := r.Baseline(wl)
		lo := r.Design(wl, system.DesignTMCC, system.SettingLow)
		hi := r.Design(wl, system.DesignTMCC, system.SettingHigh)
		nl, nh := lo.IPC/base.IPC, hi.IPC/base.IPC
		lows = append(lows, nl)
		highs = append(highs, nh)
		t.AddRow(wl, nl, nh)
	}
	t.AddRow("average", stats.GeoMean(lows), stats.GeoMean(highs))
	t.AddRow("paper", 0.86, 0.82)
	return []string{t.String()}
}

// Fig5 sweeps the TMCC CTE cache size (64KB-512KB) and reports miss rates.
func Fig5(r *Runner) []string {
	t := stats.NewTable(
		fmt.Sprintf("Figure 5: TMCC CTE cache miss rate vs cache size (high compression; sizes scaled 1/%d with footprints)",
			r.Cfg.ScaleDivisor),
		"Benchmark", "64KB", "128KB", "256KB", "512KB")
	sizes := []int{64 << 10, 128 << 10, 256 << 10, 512 << 10}
	avg := make([]float64, len(sizes))
	for _, wl := range r.sweepWorkloads() {
		row := []interface{}{wl}
		for i, sz := range sizes {
			c := cell(wl, system.DesignTMCC, system.SettingHigh)
			c.CTECacheBytes = r.ScaledCTECache(sz)
			res := r.get(c)
			miss := (1 - res.CTEHitRate) * 100
			avg[i] += miss
			row = append(row, miss)
		}
		t.AddRow(row...)
	}
	n := float64(len(r.sweepWorkloads()))
	t.AddRow("average", avg[0]/n, avg[1]/n, avg[2]/n, avg[3]/n)
	t.AddRow("paper(GraphBIG avg)", 34.0, 28.0, "~26", 24.0)
	return []string{t.String()}
}

// Fig6 sweeps TMCC's compression granularity at both settings.
func Fig6(r *Runner) []string {
	t := stats.NewTable("Figure 6: TMCC at coarse compression granularities (perf normalized to no compression)",
		"Setting", "4KB", "16KB", "64KB", "128KB")
	grans := []uint64{4 << 10, 16 << 10, 64 << 10, 128 << 10}
	for _, s := range []system.Setting{system.SettingLow, system.SettingHigh} {
		row := []interface{}{s.String()}
		for _, g := range grans {
			var vals []float64
			for _, wl := range r.sweepWorkloads() {
				base := r.Baseline(wl)
				c := cell(wl, system.DesignTMCC, s)
				c.Granularity = g
				res := r.get(c)
				if base.IPC > 0 {
					vals = append(vals, res.IPC/base.IPC)
				}
			}
			row = append(row, stats.GeoMean(vals))
		}
		t.AddRow(row...)
	}
	t.AddRow("paper low", 0.86, 0.905, 0.93, 0.94)
	t.AddRow("paper high", 0.82, 0.77, 0.66, 0.54)
	return []string{t.String()}
}

// NaiveAblation quantifies the Section IV-A3 strawman against TMCC and
// DyLeCT at high compression.
func NaiveAblation(r *Runner) []string {
	t := stats.NewTable("Section IV-A3: naive dynamic-length design (high compression)",
		"Benchmark", "TMCC hit%", "Naive hit%", "DyLeCT hit%", "Naive perf vs TMCC",
		"Naive mig/TMCC mig")
	var rel, tmccHit, naiveHit, migs []float64
	for _, wl := range r.workloads() {
		tm := r.Design(wl, system.DesignTMCC, system.SettingHigh)
		na := r.Design(wl, system.DesignNaive, system.SettingHigh)
		dy := r.Design(wl, system.DesignDyLeCT, system.SettingHigh)
		ratio, mig := 0.0, 0.0
		if tm.IPC > 0 {
			ratio = na.IPC / tm.IPC
		}
		if tm.MigrationBytes > 0 && na.Insts > 0 && tm.Insts > 0 {
			// Per-instruction migration traffic: the double-movement cost.
			mig = (float64(na.MigrationBytes) / float64(na.Insts)) /
				(float64(tm.MigrationBytes) / float64(tm.Insts))
		}
		rel = append(rel, ratio)
		migs = append(migs, mig)
		tmccHit = append(tmccHit, tm.CTEHitRate*100)
		naiveHit = append(naiveHit, na.CTEHitRate*100)
		t.AddRow(wl, tm.CTEHitRate*100, na.CTEHitRate*100, dy.CTEHitRate*100, ratio, mig)
	}
	t.AddRow("average", stats.Mean(tmccHit), stats.Mean(naiveHit), "",
		stats.GeoMean(rel), stats.GeoMean(migs))
	t.AddRow("paper", 67.0, 76.0, 91.0, 0.95, ">1 (double movement)")
	return []string{t.String()}
}

// Fig17 characterizes baseline memory bandwidth utilization.
func Fig17(r *Runner) []string {
	t := stats.NewTable("Figure 17: bandwidth utilization, conventional system without compression",
		"Benchmark", "BusUtil%", "GB/s", "L3 MPKI")
	for _, wl := range r.workloads() {
		res := r.Baseline(wl)
		gbs := float64(res.TrafficBytes) / (float64(res.Window) / 1e12) / 1e9
		mpki := 0.0
		if res.Insts > 0 {
			mpki = float64(res.L3Misses) / float64(res.Insts) * 1000
		}
		t.AddRow(wl, res.BusUtilization*100, gbs, mpki)
	}
	return []string{t.String()}
}

// Fig18 regenerates the headline result: DyLeCT vs TMCC with the
// always-hit upper bound.
func Fig18(r *Runner) []string {
	var out []string
	for _, s := range []system.Setting{system.SettingLow, system.SettingHigh} {
		t := stats.NewTable(
			fmt.Sprintf("Figure 18 (%s compression): performance normalized to TMCC", s),
			"Benchmark", "DyLeCT", "AlwaysHit bound")
		var dys, ubs []float64
		for _, wl := range r.workloads() {
			tm := r.Design(wl, system.DesignTMCC, s)
			dy := r.Design(wl, system.DesignDyLeCT, s)
			c := cell(wl, system.DesignDyLeCT, s)
			c.PerfectCTE = true
			ub := r.get(c)
			nd, nu := 0.0, 0.0
			if tm.IPC > 0 {
				nd, nu = dy.IPC/tm.IPC, ub.IPC/tm.IPC
			}
			dys = append(dys, nd)
			ubs = append(ubs, nu)
			t.AddRow(wl, nd, nu)
		}
		t.AddRow("average", stats.GeoMean(dys), stats.GeoMean(ubs))
		if s == system.SettingLow {
			t.AddRow("paper avg", 1.11, "~1.12")
		} else {
			t.AddRow("paper avg", 1.095, "~1.11")
		}
		chart := stats.NewBarChart("")
		for i, wl := range r.workloads() {
			chart.Add(wl, dys[i])
		}
		out = append(out, t.String()+"\n"+chart.String())
	}
	return out
}

// Fig19 regenerates CTE cache hit rates with DyLeCT's pre-gathered/unified
// split.
func Fig19(r *Runner) []string {
	var out []string
	for _, s := range []system.Setting{system.SettingLow, system.SettingHigh} {
		t := stats.NewTable(
			fmt.Sprintf("Figure 19 (%s compression): CTE cache hit rate (%%)", s),
			"Benchmark", "TMCC", "DyLeCT", "PreGathered", "Unified")
		var tms, dys, pgs, uns []float64
		for _, wl := range r.workloads() {
			tm := r.Design(wl, system.DesignTMCC, s)
			dy := r.Design(wl, system.DesignDyLeCT, s)
			tms = append(tms, tm.CTEHitRate*100)
			dys = append(dys, dy.CTEHitRate*100)
			pgs = append(pgs, dy.PreGatheredRate*100)
			uns = append(uns, dy.UnifiedRate*100)
			t.AddRow(wl, tm.CTEHitRate*100, dy.CTEHitRate*100,
				dy.PreGatheredRate*100, dy.UnifiedRate*100)
		}
		t.AddRow("average", stats.Mean(tms), stats.Mean(dys), stats.Mean(pgs), stats.Mean(uns))
		if s == system.SettingLow {
			t.AddRow("paper avg", 70.0, 96.0, "", "")
		} else {
			t.AddRow("paper avg", 67.0, 91.0, 77.0, 14.0)
		}
		out = append(out, t.String())
	}
	return out
}

// Fig20 regenerates the DRAM breakdown across DyLeCT's memory levels.
func Fig20(r *Runner) []string {
	var out []string
	for _, s := range []system.Setting{system.SettingLow, system.SettingHigh} {
		t := stats.NewTable(
			fmt.Sprintf("Figure 20 (%s compression): DRAM occupancy by memory level (%%)", s),
			"Benchmark", "ML0", "ML1", "ML2", "Free")
		for _, wl := range r.workloads() {
			dy := r.Design(wl, system.DesignDyLeCT, s)
			total := float64(dy.ML0Bytes + dy.ML1Bytes + dy.ML2Bytes + dy.FreeBytes)
			if total == 0 {
				continue
			}
			t.AddRow(wl, float64(dy.ML0Bytes)/total*100, float64(dy.ML1Bytes)/total*100,
				float64(dy.ML2Bytes)/total*100, float64(dy.FreeBytes)/total*100)
		}
		out = append(out, t.String())
	}
	return out
}

// Fig21 regenerates the increase in L3 miss latency over the
// no-compression system.
func Fig21(r *Runner) []string {
	t := stats.NewTable("Figure 21: added L3 miss latency vs no compression (ns)",
		"Benchmark", "TMCC low", "DyLeCT low", "TMCC high", "DyLeCT high")
	var tl, dl, th, dh []float64
	for _, wl := range r.workloads() {
		base := r.Baseline(wl).ReadLatencyNS
		tmL := r.Design(wl, system.DesignTMCC, system.SettingLow).ReadLatencyNS - base
		dyL := r.Design(wl, system.DesignDyLeCT, system.SettingLow).ReadLatencyNS - base
		tmH := r.Design(wl, system.DesignTMCC, system.SettingHigh).ReadLatencyNS - base
		dyH := r.Design(wl, system.DesignDyLeCT, system.SettingHigh).ReadLatencyNS - base
		tl, dl = append(tl, tmL), append(dl, dyL)
		th, dh = append(th, tmH), append(dh, dyH)
		t.AddRow(wl, tmL, dyL, tmH, dyH)
	}
	t.AddRow("average", stats.Mean(tl), stats.Mean(dl), stats.Mean(th), stats.Mean(dh))
	t.AddRow("paper avg", 9.5, 2.9, 12.8, 5.8)
	return []string{t.String()}
}

// Fig22 regenerates memory traffic per instruction normalized to TMCC.
func Fig22(r *Runner) []string {
	t := stats.NewTable("Figure 22: memory traffic per instruction, DyLeCT normalized to TMCC (high compression)",
		"Benchmark", "Normalized traffic/inst")
	var vals []float64
	for _, wl := range r.workloads() {
		tm := r.Design(wl, system.DesignTMCC, system.SettingHigh)
		dy := r.Design(wl, system.DesignDyLeCT, system.SettingHigh)
		if tm.TrafficPerInst() == 0 {
			continue
		}
		v := dy.TrafficPerInst() / tm.TrafficPerInst()
		vals = append(vals, v)
		t.AddRow(wl, v)
	}
	t.AddRow("average", stats.GeoMean(vals))
	t.AddRow("paper avg", 0.93)
	return []string{t.String()}
}

// Fig23 regenerates the CTE-traffic and total-traffic comparison.
func Fig23(r *Runner) []string {
	t := stats.NewTable("Figure 23: traffic normalized to TMCC (high compression)",
		"Benchmark", "CTE traffic", "Total traffic")
	var ctes, tots []float64
	for _, wl := range r.workloads() {
		tm := r.Design(wl, system.DesignTMCC, system.SettingHigh)
		dy := r.Design(wl, system.DesignDyLeCT, system.SettingHigh)
		if tm.CTETrafficBytes == 0 || tm.TrafficBytes == 0 {
			continue
		}
		cte := float64(dy.CTETrafficBytes) / float64(tm.CTETrafficBytes)
		tot := float64(dy.TrafficBytes) / float64(tm.TrafficBytes)
		ctes, tots = append(ctes, cte), append(tots, tot)
		t.AddRow(wl, cte, tot)
	}
	t.AddRow("average", stats.GeoMean(ctes), stats.GeoMean(tots))
	t.AddRow("paper avg", "<1", 1.045)
	return []string{t.String()}
}

// Fig24 regenerates DRAM energy per instruction: DyLeCT on 8 ranks vs the
// bigger conventional system on 16 ranks.
func Fig24(r *Runner) []string {
	t := stats.NewTable("Figure 24: DRAM energy per instruction, DyLeCT (8 ranks) normalized to no compression (16 ranks)",
		"Benchmark", "Normalized energy/inst")
	var vals []float64
	for _, wl := range r.workloads() {
		base := r.Baseline(wl) // 16 ranks by default for SettingNone
		dy := r.Design(wl, system.DesignDyLeCT, system.SettingHigh)
		if base.EnergyPerInst() == 0 {
			continue
		}
		v := dy.EnergyPerInst() / base.EnergyPerInst()
		vals = append(vals, v)
		t.AddRow(wl, v)
	}
	t.AddRow("average", stats.GeoMean(vals))
	t.AddRow("paper avg", 0.60)
	return []string{t.String()}
}

// Fig25 sweeps the DRAM page group size and reports the fraction of
// uncompressed pages living in ML0.
func Fig25(r *Runner) []string {
	t := stats.NewTable("Figure 25: fraction of uncompressed pages in ML0 vs group size (high compression)",
		"Benchmark", "G=3 (2-bit)", "G=7 (3-bit)", "G=15 (4-bit)")
	groups := []uint64{3, 7, 15}
	avg := make([]float64, len(groups))
	n := 0
	for _, wl := range r.sweepWorkloads() {
		row := []interface{}{wl}
		for i, g := range groups {
			c := cell(wl, system.DesignDyLeCT, system.SettingHigh)
			c.GroupSize = g
			res := r.get(c)
			f := 0.0
			if res.ML0+res.ML1 > 0 {
				f = float64(res.ML0) / float64(res.ML0+res.ML1)
			}
			avg[i] += f
			row = append(row, f*100)
		}
		n++
		t.AddRow(row...)
	}
	if n > 0 {
		t.AddRow("average", avg[0]/float64(n)*100, avg[1]/float64(n)*100, avg[2]/float64(n)*100)
	}
	t.AddRow("paper avg", 66.0, "~68", "")
	return []string{t.String()}
}
