// Package tlb models the virtual-memory translation hardware of the
// simulated CPU: a unified 1024-entry TLB supporting 4KB and 2MB pages, a
// radix page table laid out in physical memory, and a hardware page walker
// with a per-core walker cache (Table 3: 1KB per core). Walker memory
// references are returned to the caller so they traverse the real cache
// hierarchy and DRAM model like any other access.
package tlb

import (
	"dylect/internal/cache"
	"dylect/internal/stats"
)

// Page sizes supported by the OS in this study.
const (
	PageSize4K = 4 << 10
	PageSize2M = 2 << 20
)

// TLB is a unified set-associative TLB. 2MB entries and 4KB entries share
// the structure; lookups check the access's page both ways (4KB index and
// 2MB index), mirroring how unified last-level TLBs behave.
//
// Its sets are a cache.Cache with one-byte lines, so the TLB keeps the
// caches' packed recency-ordered LRU ways and their snapshot. A page
// (vpn, huge) is the line (vpn/sets·2 + huge)·sets + vpn mod sets: its set
// is vpn mod sets, and the page size is the tag's low bit.
type TLB struct {
	sets  *cache.Cache
	nsets uint64

	Hits   stats.Counter
	Misses stats.Counter
}

// NewTLB builds a TLB with the given total entries and associativity; it
// panics on a geometry that does not divide into sets.
func NewTLB(entries, assoc int) *TLB {
	c := cache.New(cache.Config{SizeBytes: entries, LineBytes: 1, Assoc: assoc})
	return &TLB{sets: c, nsets: uint64(c.Config().Sets())}
}

// line returns the cache line of page vpn at the given size.
func (t *TLB) line(vpn uint64, huge bool) uint64 {
	q := vpn / t.nsets
	tag := 2 * q
	if huge {
		tag++
	}
	return tag*t.nsets + vpn - q*t.nsets
}

// Snapshot captures the TLB's contents (statistics are not captured).
func (t *TLB) Snapshot() *cache.Snapshot { return t.sets.Snapshot() }

// Restore loads a snapshot of a TLB with the same geometry; the TLB then
// behaves exactly as the snapshotted one did. Statistics are left untouched.
func (t *TLB) Restore(s *cache.Snapshot) { t.sets.Restore(s) }

// Lookup translates the virtual address if a covering entry exists. It
// updates recency and hit/miss statistics.
func (t *TLB) Lookup(va uint64) bool {
	if t.sets.Access(t.line(va/PageSize4K, false), false) ||
		t.sets.Access(t.line(va/PageSize2M, true), false) {
		t.Hits.Inc()
		return true
	}
	t.Misses.Inc()
	return false
}

// Insert installs a translation for the page containing va at the given
// page size, evicting the set's LRU entry if needed.
func (t *TLB) Insert(va uint64, huge bool) {
	vpn := va / PageSize4K
	if huge {
		vpn = va / PageSize2M
	}
	t.sets.Fill(t.line(vpn, huge), false)
}

// MissRate returns misses/(hits+misses).
func (t *TLB) MissRate() float64 {
	return stats.Ratio(t.Misses.Value(), t.Hits.Value()+t.Misses.Value())
}

// ResetStats zeroes counters, keeping contents warm.
func (t *TLB) ResetStats() {
	t.Hits.Reset()
	t.Misses.Reset()
}

// PageTable is a 4-level radix page table for a flat virtual address space
// starting at 0, materialized as per-level flat arrays in physical memory so
// walker references have concrete physical addresses. Level 1 holds leaf
// PTEs for 4KB pages; level 2 holds PDEs (leaves under 2MB pages); levels 3
// and 4 are directories.
type PageTable struct {
	// HugePages selects 2MB leaf mappings.
	HugePages bool
	// FootprintBytes is the mapped virtual range [0, FootprintBytes).
	FootprintBytes uint64
	// PhysBase is where the workload's pages start in OS-physical space.
	PhysBase uint64
	// tableBase[i] is the physical base address of level i+1's entries.
	tableBase [4]uint64
	tableEnd  uint64
}

// level shifts for x86-64 style 9-bit radix levels.
var levelShift = [4]uint{12, 21, 30, 39}

// NewPageTable lays out page tables for the footprint immediately after
// tablesAt in physical memory.
func NewPageTable(footprint uint64, hugePages bool, physBase, tablesAt uint64) *PageTable {
	pt := &PageTable{
		HugePages:      hugePages,
		FootprintBytes: footprint,
		PhysBase:       physBase,
	}
	at := tablesAt
	for lvl := 0; lvl < 4; lvl++ {
		pt.tableBase[lvl] = at
		entries := footprint >> levelShift[lvl]
		if entries == 0 {
			entries = 1
		}
		at += (entries + 1) * 8
		// Align each level's array to a cache line.
		at = (at + 63) &^ 63
	}
	pt.tableEnd = at
	return pt
}

// TablesEnd returns the first physical address past the page-table arrays.
func (pt *PageTable) TablesEnd() uint64 { return pt.tableEnd }

// Translate maps a virtual address to its OS-physical address. The study
// uses an identity-plus-offset mapping: contiguous VA ranges map to
// contiguous OS-physical ranges (the compressed-memory layer below does all
// the interesting relocation).
func (pt *PageTable) Translate(va uint64) uint64 {
	return pt.PhysBase + va
}

// LeafLevel returns the level index of the walk's leaf (0 for 4KB PTEs, 1
// for 2MB PDEs).
func (pt *PageTable) LeafLevel() int {
	if pt.HugePages {
		return 1
	}
	return 0
}

// WalkRefs returns the physical addresses of the page-table entries a full
// walk of va touches, ordered from the root (level 4) down to the leaf.
func (pt *PageTable) WalkRefs(va uint64) []uint64 {
	leaf := pt.LeafLevel()
	refs := make([]uint64, 0, 4-leaf)
	for lvl := 3; lvl >= leaf; lvl-- {
		idx := va >> levelShift[lvl]
		refs = append(refs, pt.tableBase[lvl]+idx*8)
	}
	return refs
}

// Walker is the hardware page walker with its walker cache. The walker
// cache holds non-leaf entries (levels 2-4), so a hot walk touches memory
// only for the leaf PTE — matching the walker-cache behaviour of modern
// CPUs ([23] in the paper).
type Walker struct {
	pt     *PageTable
	wcache *cache.Cache

	Walks    stats.Counter
	MemRefs  stats.Counter
	CacheHit stats.Counter
}

// NewWalker builds a walker over the page table with a walker cache of the
// given size (Table 3: 1KB per core).
func NewWalker(pt *PageTable, cacheBytes int) *Walker {
	return &Walker{
		pt:     pt,
		wcache: cache.New(cache.Config{SizeBytes: cacheBytes, LineBytes: 64, Assoc: 4}),
	}
}

// Walk performs a page walk for va and returns the physical addresses of
// the page-table references that must go to the memory hierarchy (i.e. the
// walker-cache misses plus the leaf access).
func (w *Walker) Walk(va uint64) []uint64 {
	w.Walks.Inc()
	refs := w.pt.WalkRefs(va)
	leaf := refs[len(refs)-1]
	memRefs := make([]uint64, 0, len(refs))
	for _, ref := range refs[:len(refs)-1] {
		if w.wcache.Access(ref, false) {
			w.CacheHit.Inc()
			continue
		}
		w.wcache.Fill(ref, false)
		memRefs = append(memRefs, ref)
	}
	memRefs = append(memRefs, leaf)
	w.MemRefs.Add(uint64(len(memRefs)))
	return memRefs
}

// Cache exposes the walker cache, so warmup state can be snapshotted and
// restored.
func (w *Walker) Cache() *cache.Cache { return w.wcache }

// ResetStats zeroes walker statistics.
func (w *Walker) ResetStats() {
	w.Walks.Reset()
	w.MemRefs.Reset()
	w.CacheHit.Reset()
	w.wcache.ResetStats()
}
