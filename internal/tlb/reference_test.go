package tlb

import (
	"fmt"
	"math/rand"
	"testing"
)

// stampTLB is the stamp-based unified TLB that the cache-backed sets
// replaced, kept as the differential reference: per-set entries carrying a
// page, its size and an LRU stamp, a tick bumped on every Lookup and Insert,
// and the victim chosen as an empty entry or else the oldest stamp.
type stampTLB struct {
	sets [][]stampEntry
	tick uint64
}

type stampEntry struct {
	vpn   uint64
	huge  bool
	valid bool
	used  uint64
}

func newStampTLB(entries, assoc int) *stampTLB {
	t := &stampTLB{sets: make([][]stampEntry, entries/assoc)}
	for i := range t.sets {
		t.sets[i] = make([]stampEntry, assoc)
	}
	return t
}

func (t *stampTLB) set(vpn uint64) []stampEntry { return t.sets[vpn%uint64(len(t.sets))] }

func (t *stampTLB) lookup(va uint64) bool {
	t.tick++
	return t.probe(va/PageSize4K, false) || t.probe(va/PageSize2M, true)
}

func (t *stampTLB) probe(vpn uint64, huge bool) bool {
	set := t.set(vpn)
	for i := range set {
		if set[i].valid && set[i].vpn == vpn && set[i].huge == huge {
			set[i].used = t.tick
			return true
		}
	}
	return false
}

func (t *stampTLB) insert(va uint64, huge bool) {
	t.tick++
	vpn := va / PageSize4K
	if huge {
		vpn = va / PageSize2M
	}
	set := t.set(vpn)
	lru := 0
	for i := range set {
		if set[i].valid && set[i].vpn == vpn && set[i].huge == huge {
			set[i].used = t.tick
			return
		}
		if !set[i].valid {
			lru = i
		}
	}
	if set[lru].valid {
		for i := range set {
			if set[i].used < set[lru].used {
				lru = i
			}
		}
	}
	set[lru] = stampEntry{vpn: vpn, huge: huge, valid: true, used: t.tick}
}

// TestCacheSetsMatchStampReference drives the cache-backed TLB and the stamp
// reference with the same random mix of 4KB and 2MB lookups and inserts over
// power-of-two, non-power-of-two and single-set geometries, and requires
// identical hits. Midway the TLB is snapshotted and the sequence continues
// on a fresh TLB restored from the snapshot, which must keep matching.
func TestCacheSetsMatchStampReference(t *testing.T) {
	for _, g := range []struct{ entries, assoc int }{{1024, 8}, {64, 4}, {24, 4}, {4, 4}} {
		t.Run(fmt.Sprintf("%dx%d", g.entries, g.assoc), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(g.entries*10 + g.assoc)))
			got, want := NewTLB(g.entries, g.assoc), newStampTLB(g.entries, g.assoc)
			// Pages span three times the capacity at each size, so sets stay
			// full and recency order decides most inserts. 4KB addresses
			// fall inside the first 2MB pages, so huge entries cover some
			// of them.
			span := 3 * g.entries
			va := func() uint64 {
				if rng.Intn(2) == 0 {
					return uint64(rng.Intn(span)) * PageSize4K
				}
				return uint64(rng.Intn(span))*PageSize2M + uint64(rng.Intn(PageSize2M/PageSize4K))*PageSize4K
			}
			const steps = 40_000
			hits := 0
			for step := 0; step < steps; step++ {
				if step == steps/2 {
					restored := NewTLB(g.entries, g.assoc)
					restored.Restore(got.Snapshot())
					restored.Hits, restored.Misses = got.Hits, got.Misses
					got = restored
				}
				a := va()
				if rng.Intn(3) < 2 {
					h1, h2 := got.Lookup(a), want.lookup(a)
					if h1 != h2 {
						t.Fatalf("step %d: Lookup(%#x) = %v, reference %v", step, a, h1, h2)
					}
					if h1 {
						hits++
					}
					continue
				}
				huge := rng.Intn(2) == 0
				got.Insert(a, huge)
				want.insert(a, huge)
			}
			if got.Hits.Value() != uint64(hits) {
				t.Fatalf("Hits = %d, want %d", got.Hits.Value(), hits)
			}
			if hits == 0 || got.Misses.Value() == 0 {
				t.Fatalf("degenerate mix: %d hits, %d misses", hits, got.Misses.Value())
			}
		})
	}
}
