package tlb

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTLBMissThenHit(t *testing.T) {
	tl := NewTLB(64, 4)
	if tl.Lookup(0x10000) {
		t.Fatal("cold TLB should miss")
	}
	tl.Insert(0x10000, false)
	if !tl.Lookup(0x10000) {
		t.Fatal("inserted translation should hit")
	}
	if !tl.Lookup(0x10FFF) {
		t.Fatal("same 4K page should hit")
	}
	if tl.Lookup(0x11000) {
		t.Fatal("next 4K page should miss")
	}
}

func TestHugeEntryCovers2MB(t *testing.T) {
	tl := NewTLB(64, 4)
	tl.Insert(0, true)
	for _, off := range []uint64{0, 4096, 1 << 20, PageSize2M - 1} {
		if !tl.Lookup(off) {
			t.Fatalf("offset %#x within huge page missed", off)
		}
	}
	if tl.Lookup(PageSize2M) {
		t.Fatal("next huge page should miss")
	}
}

func TestTLBReachDifference(t *testing.T) {
	// 1024-entry TLB: with 4KB pages reach is 4MB; with 2MB pages, 2GB.
	tl4 := NewTLB(1024, 8)
	tl2 := NewTLB(1024, 8)
	span := uint64(512 << 20) // 512MB working set
	for va := uint64(0); va < span; va += PageSize2M {
		tl2.Insert(va, true)
	}
	// Revisit: 2MB TLB covers everything.
	tl2.ResetStats()
	for va := uint64(0); va < span; va += PageSize4K * 33 {
		tl2.Lookup(va)
	}
	if tl2.MissRate() != 0 {
		t.Fatalf("2MB entries should fully cover 512MB, miss rate %v", tl2.MissRate())
	}
	// 4KB pages cannot: insert sequentially then probe; most miss.
	for va := uint64(0); va < span; va += PageSize4K {
		tl4.Insert(va, false)
	}
	tl4.ResetStats()
	misses := 0
	probes := 0
	for va := uint64(0); va < span; va += PageSize4K * 33 {
		probes++
		if !tl4.Lookup(va) {
			misses++
		}
	}
	if float64(misses)/float64(probes) < 0.9 {
		t.Fatalf("4KB TLB over 512MB should thrash; miss fraction %v", float64(misses)/float64(probes))
	}
}

func TestTLBLRUWithinSet(t *testing.T) {
	tl := NewTLB(4, 2) // 2 sets, 2 ways
	// VPNs 0,2,4 all map to set 0.
	tl.Insert(0*PageSize4K, false)
	tl.Insert(2*PageSize4K, false)
	tl.Lookup(0) // make vpn 2 LRU
	tl.Insert(4*PageSize4K, false)
	if !tl.Lookup(0) {
		t.Fatal("MRU entry evicted")
	}
	if tl.Lookup(2 * PageSize4K) {
		t.Fatal("LRU entry survived")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTLB(10, 4)
}

// Property: inserting then immediately looking up always hits.
func TestPropertyInsertThenHit(t *testing.T) {
	f := func(vas []uint32, huge []bool) bool {
		tl := NewTLB(128, 8)
		for i, v := range vas {
			h := i < len(huge) && huge[i]
			tl.Insert(uint64(v), h)
			if !tl.Lookup(uint64(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPageTableLayout(t *testing.T) {
	foot := uint64(64 << 20)
	pt := NewPageTable(foot, false, 0, foot)
	if pt.TablesEnd() <= foot {
		t.Fatal("tables must occupy space after the footprint")
	}
	// Leaf level array must cover all 4KB pages: footprint/4K entries.
	if got := pt.WalkRefs(0)[3]; got < foot {
		t.Fatalf("leaf PTE address %#x inside footprint", got)
	}
}

func TestWalkRefsLevels(t *testing.T) {
	foot := uint64(1 << 30)
	pt4 := NewPageTable(foot, false, 0, foot)
	pt2 := NewPageTable(foot, true, 0, foot)
	if got := len(pt4.WalkRefs(12345)); got != 4 {
		t.Fatalf("4KB walk touches %d levels, want 4", got)
	}
	if got := len(pt2.WalkRefs(12345)); got != 3 {
		t.Fatalf("2MB walk touches %d levels, want 3", got)
	}
}

func TestWalkRefsDistinctLeaves(t *testing.T) {
	foot := uint64(16 << 20)
	pt := NewPageTable(foot, false, 0, foot)
	a := pt.WalkRefs(0)
	b := pt.WalkRefs(PageSize4K)
	if a[3] == b[3] {
		t.Fatal("adjacent pages share a leaf PTE")
	}
	if a[3]+8 != b[3] {
		t.Fatalf("leaf PTEs not adjacent: %#x vs %#x", a[3], b[3])
	}
	if a[2] != b[2] {
		t.Fatal("adjacent pages should share the level-2 entry")
	}
}

func TestTranslateOffset(t *testing.T) {
	pt := NewPageTable(1<<20, true, 0x4000_0000, 1<<20)
	if pt.Translate(0x1234) != 0x4000_1234 {
		t.Fatalf("Translate = %#x", pt.Translate(0x1234))
	}
}

func TestWalkerCacheFiltersUpperLevels(t *testing.T) {
	foot := uint64(1 << 30)
	pt := NewPageTable(foot, false, 0, foot)
	w := NewWalker(pt, 1024)
	first := w.Walk(0)
	if len(first) != 4 {
		t.Fatalf("cold walk should touch 4 levels, got %d", len(first))
	}
	second := w.Walk(PageSize4K * 3) // same upper-level entries
	if len(second) != 1 {
		t.Fatalf("warm walk should only touch the leaf, got %d refs", len(second))
	}
	if w.CacheHit.Value() != 3 {
		t.Fatalf("walker cache hits = %d, want 3", w.CacheHit.Value())
	}
}

func TestWalkerAlwaysTouchesLeaf(t *testing.T) {
	foot := uint64(256 << 20)
	pt := NewPageTable(foot, true, 0, foot)
	w := NewWalker(pt, 1024)
	for va := uint64(0); va < foot; va += PageSize2M * 7 {
		refs := w.Walk(va)
		if len(refs) == 0 {
			t.Fatal("walk produced no memory references")
		}
		leafWant := pt.WalkRefs(va)
		if refs[len(refs)-1] != leafWant[len(leafWant)-1] {
			t.Fatal("walk's last reference is not the leaf PTE")
		}
	}
}

func TestWalkerResetStats(t *testing.T) {
	pt := NewPageTable(1<<26, false, 0, 1<<26)
	w := NewWalker(pt, 1024)
	w.Walk(0)
	w.ResetStats()
	if w.Walks.Value() != 0 || w.MemRefs.Value() != 0 {
		t.Fatal("reset failed")
	}
}

func BenchmarkTLBLookup(b *testing.B) {
	b.ReportAllocs()
	tl := NewTLB(1024, 8)
	for va := uint64(0); va < 2<<30; va += PageSize2M {
		tl.Insert(va, true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Lookup(uint64(i*4096) % (2 << 30))
	}
}

// TestSnapshotRestoreIsExact: a TLB restored from a snapshot behaves exactly
// like the snapshotted TLB from then on, under a random mix of 4KB and 2MB
// lookups and inserts that keeps sets full, so LRU order decides every
// eviction.
func TestSnapshotRestoreIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	va := func() uint64 { return uint64(rng.Intn(1<<12)) * PageSize4K }
	orig := NewTLB(64, 4)
	step := func(tl *TLB, a uint64, huge bool) bool {
		if tl.Lookup(a) {
			return true
		}
		tl.Insert(a, huge)
		return false
	}
	for i := 0; i < 5000; i++ {
		step(orig, va(), rng.Intn(4) == 0)
	}
	restored := NewTLB(64, 4)
	restored.Restore(orig.Snapshot())
	for i := 0; i < 20000; i++ {
		a, huge := va(), rng.Intn(4) == 0
		if h1, h2 := step(orig, a, huge), step(restored, a, huge); h1 != h2 {
			t.Fatalf("step %d: hit %v vs restored %v", i, h1, h2)
		}
	}
}
