package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// stampCache is the stamp-based true-LRU cache the packed recency-ordered
// layout replaced, kept as the differential reference: parallel tag, stamp
// and dirty arrays per way, a tick bumped on every Access and Fill, and the
// victim chosen as an empty way or else the way with the oldest stamp.
type stampCache struct {
	assoc int
	nsets uint64
	tags  []uint64 // ^0 when empty
	used  []uint64
	dirty []bool
	tick  uint64
}

func newStampCache(cfg Config) *stampCache {
	n := cfg.Lines()
	c := &stampCache{assoc: cfg.Assoc, nsets: uint64(cfg.Sets()),
		tags: make([]uint64, n), used: make([]uint64, n), dirty: make([]bool, n)}
	for i := range c.tags {
		c.tags[i] = ^uint64(0)
	}
	return c
}

func (c *stampCache) base(line uint64) int { return int(line%c.nsets) * c.assoc }

func (c *stampCache) access(line uint64, write bool) bool {
	b := c.base(line)
	c.tick++
	for i := b; i < b+c.assoc; i++ {
		if c.tags[i] == line {
			c.used[i] = c.tick
			c.dirty[i] = c.dirty[i] || write
			return true
		}
	}
	return false
}

func (c *stampCache) probe(line uint64) bool {
	b := c.base(line)
	for i := b; i < b+c.assoc; i++ {
		if c.tags[i] == line {
			return true
		}
	}
	return false
}

func (c *stampCache) fill(line uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	b := c.base(line)
	c.tick++
	lru := b
	for i := b; i < b+c.assoc; i++ {
		if c.tags[i] == line {
			c.used[i] = c.tick
			c.dirty[i] = c.dirty[i] || dirty
			return 0, false, false
		}
		if c.tags[i] == ^uint64(0) {
			lru = i
		}
	}
	if c.tags[lru] != ^uint64(0) {
		for i := b; i < b+c.assoc; i++ {
			if c.used[i] < c.used[lru] {
				lru = i
			}
		}
	}
	vTag, vDirty := c.tags[lru], c.dirty[lru]
	c.tags[lru], c.dirty[lru], c.used[lru] = line, dirty, c.tick
	if vTag != ^uint64(0) {
		return vTag, vDirty, true
	}
	return 0, false, false
}

func (c *stampCache) invalidate(line uint64) (wasDirty, wasPresent bool) {
	b := c.base(line)
	for i := b; i < b+c.assoc; i++ {
		if c.tags[i] == line {
			d := c.dirty[i]
			c.tags[i], c.dirty[i], c.used[i] = ^uint64(0), false, 0
			return d, true
		}
	}
	return false, false
}

// TestPackedMatchesStampReference drives the packed cache and the stamp
// reference with the same random Access/Fill/Probe/Invalidate sequence over
// power-of-two, non-power-of-two and single-set geometries of 4 to 16 ways,
// and requires identical hits, victims and victim dirty bits. Midway the
// packed cache is snapshotted and the sequence continues on a fresh cache
// restored from the snapshot, which must keep matching.
func TestPackedMatchesStampReference(t *testing.T) {
	for _, g := range []struct{ sets, assoc int }{
		{64, 4}, {16, 8}, {8, 16}, {1, 4}, {1, 16}, {3, 4}, {5, 8}, {12, 16}, {7, 5},
	} {
		t.Run(fmt.Sprintf("%dx%d", g.sets, g.assoc), func(t *testing.T) {
			cfg := Config{SizeBytes: g.sets * g.assoc * 64, LineBytes: 64, Assoc: g.assoc}
			rng := rand.New(rand.NewSource(int64(g.sets*100 + g.assoc)))
			got, want := New(cfg), newStampCache(cfg)
			// Lines span a few times the capacity, so sets stay full and
			// recency order decides most fills.
			span := 3 * g.sets * g.assoc
			const steps = 40_000
			for step := 0; step < steps; step++ {
				if step == steps/2 {
					restored := New(cfg)
					restored.Restore(got.Snapshot())
					got = restored
				}
				line := uint64(rng.Intn(span))
				addr, w := line*64+uint64(rng.Intn(64)), rng.Intn(3) == 0
				switch op := rng.Intn(10); {
				case op < 4:
					if h, r := got.Access(addr, w), want.access(line, w); h != r {
						t.Fatalf("step %d: Access(%#x) hit %v, reference %v", step, addr, h, r)
					}
				case op < 8:
					v, d, e := got.Fill(addr, w)
					rv, rd, re := want.fill(line, w)
					if v != rv*64 || d != rd || e != re {
						t.Fatalf("step %d: Fill(%#x) = (%#x, %v, %v), reference (%#x, %v, %v)",
							step, addr, v, d, e, rv*64, rd, re)
					}
				case op < 9:
					if h, r := got.Probe(addr), want.probe(line); h != r {
						t.Fatalf("step %d: Probe(%#x) %v, reference %v", step, addr, h, r)
					}
				default:
					d, p := got.Invalidate(addr)
					rd, rp := want.invalidate(line)
					if d != rd || p != rp {
						t.Fatalf("step %d: Invalidate(%#x) = (%v, %v), reference (%v, %v)", step, addr, d, p, rd, rp)
					}
				}
			}
		})
	}
}

// TestFillRejectsUnpackableTag: a line whose tag cannot be packed into a way
// never aliases the stored line its truncated key would match: lookups of it
// miss, and filling it panics.
func TestFillRejectsUnpackableTag(t *testing.T) {
	c := smallCache()    // 4 sets
	c.Fill(0, false)     // set 0, tag 0
	const huge = 1 << 40 // set 0, tag 2^32: its key truncates to tag 0's
	if c.Access(huge, false) || c.Probe(huge) {
		t.Fatal("unpackable line aliased a stored line")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Fill of an unpackable line did not panic")
		}
	}()
	c.Fill(huge, false)
}

// scanNextLine is the next-line prefetcher's usefulness check as a full
// ring scan, the reference for NextLine's per-bucket slot bitmasks.
type scanNextLine struct {
	enabled                     bool
	issued                      [64]uint64
	head                        int
	nIssued, nUseful, sinceEval uint64
}

func (p *scanNextLine) observe(line uint64) (prefetch bool) {
	for i, l := range p.issued {
		if l != 0 && l == line {
			p.nUseful++
			p.issued[i] = 0
			break
		}
	}
	if p.sinceEval++; p.sinceEval >= nextLineEvalWindow {
		p.sinceEval = 0
		p.enabled = p.nIssued < 32 || float64(p.nUseful)/float64(p.nIssued) >= 0.125
		p.nIssued, p.nUseful = 0, 0
	}
	if !p.enabled {
		return false
	}
	p.nIssued++
	p.issued[p.head] = line + 1
	p.head = (p.head + 1) % len(p.issued)
	return true
}

// TestNextLineMatchesRingScan: on streams that mix sequential runs, repeats
// and random jumps over a small line range (so ring entries collide in
// buckets and get consumed out of order), NextLine issues exactly the
// reference's prefetches and keeps the same enable state and accuracy.
func TestNextLineMatchesRingScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	got, want := NewNextLine(), &scanNextLine{enabled: true}
	var line uint64
	for step := 0; step < 200_000; step++ {
		switch r := rng.Intn(10); {
		case r < 5:
			line++
		case r < 7:
			line = uint64(rng.Intn(512))
		case r < 9:
			line = uint64(rng.Intn(512)) * 64 // one bucket
		}
		out := got.Observe(line, nil)
		if issued := want.observe(line); issued != (len(out) == 1) || issued && out[0] != line+1 {
			t.Fatalf("step %d: line %d: prefetch %v, reference issued %v", step, line, out, issued)
		}
		if got.Enabled() != want.enabled || got.nUseful != want.nUseful || got.nIssued != want.nIssued {
			t.Fatalf("step %d: state (enabled %v, useful %d, issued %d), reference (%v, %d, %d)",
				step, got.Enabled(), got.nUseful, got.nIssued, want.enabled, want.nUseful, want.nIssued)
		}
	}
}
