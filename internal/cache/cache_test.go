package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallCache() *Cache {
	return New(Config{SizeBytes: 1024, LineBytes: 64, Assoc: 4}) // 4 sets
}

func TestConfigGeometry(t *testing.T) {
	cfg := Config{SizeBytes: 128 << 10, LineBytes: 64, Assoc: 8}
	if cfg.Lines() != 2048 || cfg.Sets() != 256 {
		t.Fatalf("geometry: lines=%d sets=%d", cfg.Lines(), cfg.Sets())
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{SizeBytes: 0, LineBytes: 64, Assoc: 4}).Validate(); err == nil {
		t.Fatal("zero size should be invalid")
	}
}

func TestMissThenHit(t *testing.T) {
	c := smallCache()
	if c.Access(0x1000, false) {
		t.Fatal("cold access should miss")
	}
	c.Fill(0x1000, false)
	if !c.Access(0x1000, false) {
		t.Fatal("filled line should hit")
	}
	if !c.Access(0x1038, false) {
		t.Fatal("same line, different offset should hit")
	}
	if c.Hits.Value() != 2 || c.Misses.Value() != 1 {
		t.Fatalf("stats hits=%d misses=%d", c.Hits.Value(), c.Misses.Value())
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache() // 4 sets, 4 ways; lines mapping to set 0: line%4==0
	setStride := uint64(4 * 64)
	// Fill 4 ways of set 0.
	for i := uint64(0); i < 4; i++ {
		c.Fill(i*setStride, false)
	}
	// Touch line 0 to make line 1 the LRU.
	c.Access(0, false)
	v, _, evicted := c.Fill(4*setStride, false)
	if !evicted {
		t.Fatal("fifth fill must evict")
	}
	if v != 1*setStride {
		t.Fatalf("evicted %#x, want %#x (the LRU)", v, setStride)
	}
	if !c.Probe(0) {
		t.Fatal("recently used line was evicted")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := smallCache()
	setStride := uint64(4 * 64)
	c.Fill(0, false)
	c.Access(0, true) // dirty it
	for i := uint64(1); i < 4; i++ {
		c.Fill(i*setStride, false)
	}
	v, dirty, evicted := c.Fill(4*setStride, false)
	if !evicted || v != 0 || !dirty {
		t.Fatalf("eviction = (%#x, dirty=%v, evicted=%v), want dirty line 0", v, dirty, evicted)
	}
}

func TestFillExistingRefreshes(t *testing.T) {
	c := smallCache()
	if _, _, evicted := c.Fill(0, false); evicted {
		t.Fatal("first fill should not evict")
	}
	if _, _, evicted := c.Fill(0, true); evicted {
		t.Fatal("re-fill should not evict")
	}
	// Re-fill with dirty=true marks dirty.
	d, present := c.Invalidate(0)
	if !present || !d {
		t.Fatal("re-fill did not mark dirty")
	}
}

func TestInvalidate(t *testing.T) {
	c := smallCache()
	c.Fill(0x40, true)
	if d, p := c.Invalidate(0x40); !p || !d {
		t.Fatal("invalidate missed present dirty line")
	}
	if c.Probe(0x40) {
		t.Fatal("line survived invalidate")
	}
	if _, p := c.Invalidate(0x40); p {
		t.Fatal("double invalidate reported present")
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := smallCache()
	setStride := uint64(4 * 64)
	for i := uint64(0); i < 4; i++ {
		c.Fill(i*setStride, false)
	}
	// Probing line 0 must not save it from LRU eviction.
	c.Probe(0)
	v, _, _ := c.Fill(4*setStride, false)
	if v != 0 {
		t.Fatalf("probe perturbed LRU; evicted %#x, want 0", v)
	}
	h, m := c.Hits.Value(), c.Misses.Value()
	if h != 0 || m != 0 {
		t.Fatal("probe touched statistics")
	}
}

func TestNonPowerOfTwoSets(t *testing.T) {
	c := New(Config{SizeBytes: 3 * 64 * 2, LineBytes: 64, Assoc: 2}) // 3 sets
	for i := uint64(0); i < 30; i++ {
		c.Fill(i*64, false)
	}
	for i := uint64(24); i < 30; i++ {
		if !c.Probe(i * 64) {
			t.Fatalf("recently filled line %d missing", i)
		}
	}
}

func TestHitRateAndReset(t *testing.T) {
	c := smallCache()
	c.Access(0, false)
	c.Fill(0, false)
	c.Access(0, false)
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", c.HitRate())
	}
	c.ResetStats()
	if c.Hits.Value() != 0 || c.Misses.Value() != 0 {
		t.Fatal("reset failed")
	}
	if !c.Probe(0) {
		t.Fatal("reset dropped contents")
	}
}

func TestOccupancy(t *testing.T) {
	c := smallCache()
	if c.Occupancy() != 0 {
		t.Fatal("empty cache occupancy != 0")
	}
	for i := uint64(0); i < 16; i++ {
		c.Fill(i*64, false)
	}
	if c.Occupancy() != 1 {
		t.Fatalf("full cache occupancy = %v", c.Occupancy())
	}
}

// Property: cache never holds more distinct lines than its capacity, and a
// just-filled line is always present.
func TestPropertyCapacityAndPresence(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := smallCache()
		for _, a := range addrs {
			addr := uint64(a) * 64
			c.Fill(addr, false)
			if !c.Probe(addr) {
				return false
			}
		}
		return c.Occupancy() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: hits+misses equals number of Access calls.
func TestPropertyStatConservation(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		c := smallCache()
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			if !c.Access(uint64(a)*64, w) {
				c.Fill(uint64(a)*64, w)
			}
		}
		return c.Hits.Value()+c.Misses.Value() == uint64(len(addrs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCTECacheGeometry(t *testing.T) {
	// The 128KB CTE cache from Table 3: 64B blocks, 8-way.
	c := New(Config{SizeBytes: 128 << 10, LineBytes: 64, Assoc: 8})
	if c.Config().Lines() != 2048 {
		t.Fatalf("CTE cache lines = %d, want 2048", c.Config().Lines())
	}
	// Translation reach at 8B per CTE: 2048 blocks * 8 CTEs * 4KB = 64MB.
	reach := uint64(c.Config().Lines()) * 8 * 4096
	if reach != 64<<20 {
		t.Fatalf("unified reach = %d, want 64MB", reach)
	}
}

func TestNextLinePrefetcher(t *testing.T) {
	p := NewNextLine()
	// Sequential stream: prefetches should be issued and become useful.
	issued := 0
	for line := uint64(100); line < 200; line++ {
		if got := p.Observe(line, nil); len(got) == 1 && got[0] == line+1 {
			issued++
		}
	}
	if issued == 0 {
		t.Fatal("no next-line prefetches issued for sequential stream")
	}
	if !p.Enabled() {
		t.Fatal("sequential stream should keep next-line enabled")
	}
}

func TestNextLineDisablesOnRandom(t *testing.T) {
	p := NewNextLine()
	rng := rand.New(rand.NewSource(5))
	disabledAt := -1
	for i := 0; i < 2048; i++ {
		p.Observe(rng.Uint64()%(1<<40), nil)
		if !p.Enabled() && disabledAt < 0 {
			disabledAt = i
		}
	}
	if disabledAt < 0 {
		t.Fatal("next-line never disabled on random stream")
	}
}

func TestStridePrefetcher(t *testing.T) {
	p := NewStride(4)
	var got []uint64
	for i := uint64(0); i < 10; i++ {
		got = p.Observe(1, 1000+i*3, nil)
	}
	if len(got) != 4 {
		t.Fatalf("degree-4 stride issued %d prefetches", len(got))
	}
	base := uint64(1000 + 9*3)
	for i, l := range got {
		if l != base+uint64(i+1)*3 {
			t.Fatalf("prefetch %d = %d, want %d", i, l, base+uint64(i+1)*3)
		}
	}
}

func TestStrideResetsOnChange(t *testing.T) {
	p := NewStride(2)
	for i := uint64(0); i < 5; i++ {
		p.Observe(7, 100+i*2, nil)
	}
	if got := p.Observe(7, 500, nil); len(got) != 0 {
		t.Fatal("stride change should suppress prefetch")
	}
	// Needs two confirmations again.
	if got := p.Observe(7, 510, nil); len(got) != 0 {
		t.Fatal("single confirmation should not prefetch")
	}
	p.Observe(7, 520, nil)
	if got := p.Observe(7, 530, nil); len(got) != 2 {
		t.Fatalf("re-trained stride issued %d prefetches, want 2", len(got))
	}
}

func TestStrideSeparateStreams(t *testing.T) {
	p := NewStride(1)
	for i := uint64(0); i < 8; i++ {
		p.Observe(1, 100+i, nil)
		p.Observe(2, 9000+i*100, nil)
	}
	a := p.Observe(1, 108, nil)
	b := p.Observe(2, 9800, nil)
	if len(a) != 1 || a[0] != 109 {
		t.Fatalf("stream 1 prefetch = %v", a)
	}
	if len(b) != 1 || b[0] != 9900 {
		t.Fatalf("stream 2 prefetch = %v", b)
	}
}

func TestStrideTableBounded(t *testing.T) {
	p := NewStride(1)
	for s := uint64(0); s < 10000; s++ {
		p.Observe(s, s, nil)
	}
	if len(p.entries) > p.limit {
		t.Fatalf("stride table grew to %d entries (limit %d)", len(p.entries), p.limit)
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	b.ReportAllocs()
	c := New(Config{SizeBytes: 2 << 20, LineBytes: 64, Assoc: 16})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 8192)
	for i := range addrs {
		addrs[i] = rng.Uint64() % (64 << 20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i%len(addrs)]
		if !c.Access(a, false) {
			c.Fill(a, false)
		}
	}
}

// TestSnapshotRestoreIsExact: a cache restored from a snapshot behaves
// exactly like the snapshotted cache from then on — same hits, same
// victims, same dirty bits — under a random mix of accesses and fills that
// keeps sets full, so LRU order decides every eviction.
func TestSnapshotRestoreIsExact(t *testing.T) {
	cfg := Config{SizeBytes: 8 << 10, LineBytes: 64, Assoc: 8}
	rng := rand.New(rand.NewSource(5))
	addr := func() uint64 { return uint64(rng.Intn(1024)) * 64 }
	orig := New(cfg)
	for i := 0; i < 5000; i++ {
		if a := addr(); !orig.Access(a, rng.Intn(4) == 0) {
			orig.Fill(a, rng.Intn(3) == 0)
		}
	}
	snap := orig.Snapshot()
	restored := New(cfg)
	restored.Restore(snap)
	for i := 0; i < 20000; i++ {
		a, w := addr(), rng.Intn(4) == 0
		if h1, h2 := orig.Access(a, w), restored.Access(a, w); h1 != h2 {
			t.Fatalf("step %d: hit %v vs restored %v", i, h1, h2)
		} else if !h1 {
			v1, d1, e1 := orig.Fill(a, w)
			v2, d2, e2 := restored.Fill(a, w)
			if v1 != v2 || d1 != d2 || e1 != e2 {
				t.Fatalf("step %d: victim (%#x,%v,%v) vs restored (%#x,%v,%v)", i, v1, d1, e1, v2, d2, e2)
			}
		}
	}
}
