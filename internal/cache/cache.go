// Package cache implements the set-associative caches used throughout the
// simulator: the CPU's L1/L2/L3 data caches, the per-core page-walker
// caches, and the memory controller's CTE cache (which stores 64B blocks
// from the unified CTE table and — under DyLeCT — the pre-gathered table in
// a single structure). It also provides the next-line (with automatic
// enable/disable) and stride prefetchers from Table 3.
package cache

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"dylect/internal/stats"
)

// Config sizes a cache.
type Config struct {
	SizeBytes int
	LineBytes int
	Assoc     int
}

// Lines returns the number of cache lines.
func (c Config) Lines() int { return c.SizeBytes / c.LineBytes }

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Lines() / c.Assoc }

// Validate checks the geometry is usable.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.Lines()%c.Assoc != 0 || c.Lines() < c.Assoc {
		return fmt.Errorf("cache: %d lines not divisible into %d-way sets", c.Lines(), c.Assoc)
	}
	return nil
}

// Cache is a set-associative, true-LRU, write-back cache keyed by line
// address. It is purely functional (no timing); latency lives in the
// system model.
//
// Each set keeps its ways in recency order, most recently used first, with
// empty ways trailing, so no LRU stamp is stored: a hit moves its way to the
// front, a fill shifts the set down one way and drops the last (the LRU line,
// or an empty way), and an invalidation closes the gap. A way is one packed
// uint32, (tag+1)<<1 | dirty, where tag = line / sets and 0 marks an empty
// way. A 16-way set is then 64 bytes, one host cache line, and the whole
// cache is a single flat array indexed by set*assoc+way.
type Cache struct {
	cfg   Config
	assoc int
	ways  []uint32
	shift uint // log2(LineBytes)
	// Power-of-two set counts index with a mask and a shift; others (mask
	// 0) with a division.
	mask    uint64
	setBits uint
	nsets   uint64

	Hits   stats.Counter
	Misses stats.Counter
}

// New builds a cache; it panics on invalid geometry (a configuration bug,
// not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	c := &Cache{
		cfg:   cfg,
		assoc: cfg.Assoc,
		ways:  make([]uint32, nsets*cfg.Assoc),
		nsets: uint64(nsets),
	}
	for s := uint(0); (1 << s) < cfg.LineBytes; s++ {
		c.shift = s + 1
	}
	if nsets > 1 && nsets&(nsets-1) == 0 {
		c.mask = uint64(nsets - 1)
		c.setBits = uint(bits.TrailingZeros(uint(nsets)))
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr converts a byte address to this cache's line address.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.shift }

// locate returns the ways and index of the set holding the line containing
// addr, and the line's packed key, (tag+1)<<1 with the dirty bit clear. The
// key stays 64-bit, so a tag too wide to store can never match a stored way.
//
//dylect:hotpath
func (c *Cache) locate(addr uint64) (set []uint32, s, key uint64) {
	line := c.LineAddr(addr)
	var tag uint64
	if c.mask != 0 {
		s, tag = line&c.mask, line>>c.setBits
	} else {
		s, tag = line%c.nsets, line/c.nsets
	}
	base := int(s) * c.assoc
	return c.ways[base : base+c.assoc], s, (tag + 1) << 1
}

// find returns the way of set holding key, or -1.
//
//dylect:hotpath
func find(set []uint32, key uint64) int {
	for i, w := range set {
		if uint64(w&^1) == key {
			return i
		}
	}
	return -1
}

// touch moves way i to the front of its set, setting its dirty bit if dirty.
//
//dylect:hotpath
func touch(set []uint32, i int, dirty bool) {
	w := set[i]
	if dirty {
		w |= 1
	}
	copy(set[1:i+1], set[:i])
	set[0] = w
}

// Access looks up the line containing addr, updating LRU and hit/miss
// statistics. On a write hit the line is marked dirty.
//
//dylect:hotpath
func (c *Cache) Access(addr uint64, write bool) bool {
	set, _, key := c.locate(addr)
	if i := find(set, key); i >= 0 {
		touch(set, i, write)
		c.Hits.Inc()
		return true
	}
	c.Misses.Inc()
	return false
}

// Probe reports whether the line containing addr is present, without
// touching LRU state or statistics.
//
//dylect:hotpath
func (c *Cache) Probe(addr uint64) bool {
	set, _, key := c.locate(addr)
	return find(set, key) >= 0
}

// Fill inserts the line containing addr (marking it dirty if requested) and
// returns the evicted victim, if any. Filling an already-present line only
// refreshes its LRU position. It panics on a tag too wide for a packed way,
// which takes terabytes of simulated footprint.
//
//dylect:hotpath
func (c *Cache) Fill(addr uint64, dirty bool) (victimAddr uint64, victimDirty, evicted bool) {
	set, s, key := c.locate(addr)
	if i := find(set, key); i >= 0 {
		touch(set, i, dirty)
		return 0, false, false
	}
	if key > math.MaxUint32 {
		panic(fmt.Sprintf("cache: line %#x does not fit a packed way", c.LineAddr(addr)))
	}
	if dirty {
		key |= 1
	}
	v := set[len(set)-1]
	copy(set[1:], set)
	set[0] = uint32(key)
	if v == 0 {
		return 0, false, false
	}
	return ((uint64(v>>1)-1)*c.nsets + s) << c.shift, v&1 != 0, true
}

// Invalidate drops the line containing addr if present, returning whether it
// was dirty.
func (c *Cache) Invalidate(addr uint64) (wasDirty, wasPresent bool) {
	set, _, key := c.locate(addr)
	i := find(set, key)
	if i < 0 {
		return false, false
	}
	d := set[i]&1 != 0
	copy(set[i:], set[i+1:])
	set[len(set)-1] = 0
	return d, true
}

// HitRate returns hits/(hits+misses).
func (c *Cache) HitRate() float64 {
	return stats.Ratio(c.Hits.Value(), c.Hits.Value()+c.Misses.Value())
}

// ResetStats zeroes hit/miss counters (cache contents stay warm), used at
// the boundary between functional warmup and the timed window.
func (c *Cache) ResetStats() {
	c.Hits.Reset()
	c.Misses.Reset()
}

// Snapshot is an immutable copy of a cache's contents: its packed ways,
// whose positions are already the recency order. Statistics are not
// captured.
type Snapshot struct {
	cfg  Config
	ways []uint32
}

// Bytes returns the snapshot's approximate heap footprint.
func (s *Snapshot) Bytes() int { return 4 * len(s.ways) }

// Snapshot captures the cache's contents.
func (c *Cache) Snapshot() *Snapshot {
	return &Snapshot{cfg: c.cfg, ways: slices.Clone(c.ways)}
}

// Restore loads a snapshot into the cache, which must have the snapshot's
// geometry. Every later hit, victim and dirty bit is exactly the
// snapshotted cache's. Statistics are left untouched.
func (c *Cache) Restore(s *Snapshot) {
	if s.cfg != c.cfg {
		panic(fmt.Sprintf("cache: restoring a %+v snapshot into a %+v cache", s.cfg, c.cfg))
	}
	copy(c.ways, s.ways)
}

// Occupancy returns the fraction of ways currently valid.
func (c *Cache) Occupancy() float64 {
	valid := 0
	for _, w := range c.ways {
		if w != 0 {
			valid++
		}
	}
	return float64(valid) / float64(len(c.ways))
}
