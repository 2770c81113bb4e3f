package trace

import (
	"math"
	"testing"
)

func TestWorkloadRegistry(t *testing.T) {
	ws := Workloads()
	if len(ws) != 12 {
		t.Fatalf("workload count = %d, want 12 (9 GraphBIG + mcf + omnetpp + canneal)", len(ws))
	}
	suites := map[string]int{}
	for _, w := range ws {
		suites[w.Suite]++
		if w.FootprintBytes == 0 || w.CompressRatio <= 1 {
			t.Errorf("%s: bad footprint/ratio", w.Name)
		}
		if w.LowDRAMFrac <= w.HighDRAMFrac {
			t.Errorf("%s: low-compression DRAM must exceed high-compression DRAM", w.Name)
		}
		if w.LowDRAMFrac >= 1 {
			t.Errorf("%s: compression settings need DRAM < footprint", w.Name)
		}
	}
	if suites["graphbig"] != 9 || suites["spec"] != 2 || suites["parsec"] != 1 {
		t.Fatalf("suite split = %v", suites)
	}
}

func TestByName(t *testing.T) {
	w, ok := ByName("canneal")
	if !ok || w.Suite != "parsec" {
		t.Fatal("canneal lookup failed")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Fatal("bogus name found")
	}
	if len(Names()) != 12 {
		t.Fatal("Names() length wrong")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	w, _ := ByName("bfs")
	g1 := w.NewGenerator(0, 42)
	g2 := w.NewGenerator(0, 42)
	var a, b Access
	for i := 0; i < 1000; i++ {
		g1.Next(&a)
		g2.Next(&b)
		if a != b {
			t.Fatalf("generators diverged at access %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestGeneratorCoreVariation(t *testing.T) {
	w, _ := ByName("bfs")
	g1 := w.NewGenerator(0, 42)
	g2 := w.NewGenerator(1, 42)
	var a, b Access
	same := 0
	for i := 0; i < 1000; i++ {
		g1.Next(&a)
		g2.Next(&b)
		if a.VA == b.VA {
			same++
		}
	}
	if same > 100 {
		t.Fatalf("cores generated %d/1000 identical addresses", same)
	}
}

func TestAddressesWithinFootprint(t *testing.T) {
	for _, w := range Workloads() {
		for core := 0; core < 4; core++ {
			g := w.NewGenerator(core, 1)
			var a Access
			for i := 0; i < 20000; i++ {
				g.Next(&a)
				if a.VA >= w.FootprintBytes {
					t.Fatalf("%s core %d: VA %#x beyond footprint %#x",
						w.Name, core, a.VA, w.FootprintBytes)
				}
			}
		}
	}
}

func TestInstancedWorkloadsPartition(t *testing.T) {
	w, _ := ByName("mcf")
	inst := w.FootprintBytes / 4
	for core := 0; core < 4; core++ {
		g := w.NewGenerator(core, 1)
		var a Access
		lo, hi := uint64(core)*inst, uint64(core+1)*inst
		for i := 0; i < 5000; i++ {
			g.Next(&a)
			if a.VA < lo || a.VA >= hi {
				t.Fatalf("mcf core %d: VA %#x outside instance [%#x,%#x)", core, a.VA, lo, hi)
			}
		}
	}
}

// distinctPages counts unique 4KB pages touched in n accesses.
func distinctPages(g Generator, n int) map[uint64]int {
	pages := map[uint64]int{}
	var a Access
	for i := 0; i < n; i++ {
		g.Next(&a)
		pages[a.VA/4096]++
	}
	return pages
}

func TestSkewedWorkloadsHaveHotSet(t *testing.T) {
	w, _ := ByName("bfs")
	pages := distinctPages(w.NewGenerator(0, 7), 200000)
	// Sort page counts to measure concentration.
	counts := make([]int, 0, len(pages))
	for _, c := range pages {
		counts = append(counts, c)
	}
	total := 0
	maxc := 0
	for _, c := range counts {
		total += c
		if c > maxc {
			maxc = c
		}
	}
	// The hottest pages must absorb disproportionate traffic.
	if maxc < total/len(counts)*20 {
		t.Fatalf("bfs shows no skew: max page count %d, mean %d", maxc, total/len(counts))
	}
}

func TestCannealIsUnskewed(t *testing.T) {
	bfsW, _ := ByName("bfs")
	canW, _ := ByName("canneal")
	n := 100000
	bfsPages := len(distinctPages(bfsW.NewGenerator(0, 3), n))
	canPages := len(distinctPages(canW.NewGenerator(0, 3), n))
	// canneal touches a much larger fraction of distinct pages per access —
	// highly irregular, like the paper's TLB-miss-heavy characterization —
	// after normalizing for footprint coverage.
	bfsCover := float64(bfsPages) / float64(bfsW.FootprintBytes/4096)
	canCover := float64(canPages) / float64(canW.FootprintBytes/4096)
	if canCover <= bfsCover {
		t.Fatalf("canneal coverage %.4f not above bfs %.4f", canCover, bfsCover)
	}
}

func TestDependenceFractions(t *testing.T) {
	mcfW, _ := ByName("mcf")
	dcW, _ := ByName("dcentr")
	dep := func(g Generator, n int) float64 {
		var a Access
		d := 0
		for i := 0; i < n; i++ {
			g.Next(&a)
			if a.Dependent {
				d++
			}
		}
		return float64(d) / float64(n)
	}
	mcfDep := dep(mcfW.NewGenerator(0, 1), 20000)
	dcDep := dep(dcW.NewGenerator(0, 1), 20000)
	if mcfDep < 0.35 {
		t.Fatalf("mcf dependence %.2f too low for a pointer chaser", mcfDep)
	}
	if dcDep >= mcfDep {
		t.Fatalf("dcentr dependence %.2f should be below mcf %.2f", dcDep, mcfDep)
	}
}

func TestWriteFractionReasonable(t *testing.T) {
	for _, w := range Workloads() {
		g := w.NewGenerator(0, 1)
		var a Access
		writes := 0
		n := 20000
		for i := 0; i < n; i++ {
			g.Next(&a)
			if a.Write {
				writes++
			}
		}
		frac := float64(writes) / float64(n)
		if frac < 0.02 || frac > 0.6 {
			t.Errorf("%s write fraction %.2f outside [0.02,0.6]", w.Name, frac)
		}
	}
}

func TestScanComponentSequential(t *testing.T) {
	s := &scan{reg: region{base: 4096, size: 1 << 20}, stride: 64, nonMem: 3, streamID: 9}
	var a Access
	rng := NewMix(1).rng
	var prev uint64
	for i := 0; i < 100; i++ {
		s.next(rng, &a)
		if i > 0 && a.VA != prev+64 {
			t.Fatalf("scan not sequential: %#x after %#x", a.VA, prev)
		}
		prev = a.VA
	}
	if a.Stream != 9 || a.NonMemInsts != 3 {
		t.Fatal("scan metadata wrong")
	}
}

func TestScanWraps(t *testing.T) {
	s := &scan{reg: region{base: 0, size: 256}, stride: 64}
	var a Access
	rng := NewMix(1).rng
	seen := map[uint64]bool{}
	for i := 0; i < 8; i++ {
		s.next(rng, &a)
		seen[a.VA] = true
		if a.VA >= 256 {
			t.Fatalf("scan escaped region: %#x", a.VA)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("wrap produced %d distinct addresses, want 4", len(seen))
	}
}

func TestRankToPageInjectiveOnHotRanks(t *testing.T) {
	m := NewMix(1)
	z := newZipfGather(m.rng, region{size: 1 << 30}, 1.1, 1, 0, 1, 0, 1)
	seen := map[uint64]uint64{}
	for rank := uint64(0); rank < 10000; rank++ {
		p := z.rankToPage(rank)
		if prev, dup := seen[p]; dup {
			t.Fatalf("ranks %d and %d both map to page %d", prev, rank, p)
		}
		seen[p] = rank
		if p >= z.nPages {
			t.Fatalf("rank %d mapped beyond region: %d", rank, p)
		}
	}
}

func TestHotPagesAreClustered(t *testing.T) {
	m := NewMix(1)
	z := newZipfGather(m.rng, region{size: 1 << 30}, 1.1, 1, 0, 1, 0, 1)
	// Consecutive hot ranks within a cluster should be adjacent pages: this
	// is what lets an 8-page CTE block cover 8 hot pages.
	p0 := z.rankToPage(0)
	p1 := z.rankToPage(1)
	if p1 != p0+1 {
		t.Fatalf("hot ranks 0,1 not adjacent: %d, %d", p0, p1)
	}
	if z.rankToPage(clusterPages) == z.rankToPage(clusterPages-1)+1 {
		t.Fatal("cluster boundary should break adjacency")
	}
}

func TestPaperSpeedupsRecorded(t *testing.T) {
	// Figure 3's average is ~1.75x; our recorded reference values should
	// average near that.
	ws := Workloads()
	sum := 0.0
	for _, w := range ws {
		if w.PaperHugePageSpeedup < 1.0 {
			t.Fatalf("%s: missing paper speedup", w.Name)
		}
		sum += w.PaperHugePageSpeedup
	}
	avg := sum / float64(len(ws))
	if math.Abs(avg-1.75) > 0.15 {
		t.Fatalf("recorded Figure 3 speedups average %.2f, want ~1.75", avg)
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	b.ReportAllocs()
	w, _ := ByName("bfs")
	g := w.NewGenerator(0, 1)
	var a Access
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(&a)
	}
}

// TestMixCloneIsExact: a clone taken mid-stream continues exactly where the
// original does, and the two advance independently. The clone runs first,
// so a clone that shared state with its original would shift the
// original's stream and fail the comparison.
func TestMixCloneIsExact(t *testing.T) {
	for _, w := range Workloads() {
		g := w.NewGenerator(1, 7).(*Mix)
		var a Access
		for i := 0; i < 10_000; i++ {
			g.Next(&a)
		}
		c := g.Clone()
		got := make([]Access, 5_000)
		for i := range got {
			c.Next(&got[i])
		}
		for i, want := range got {
			g.Next(&a)
			if a != want {
				t.Fatalf("%s: clone diverged at access %d: got %+v, want %+v", w.Name, i, want, a)
			}
		}
	}
}
