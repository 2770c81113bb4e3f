package cache

import (
	"maps"
	"math/bits"
)

// Prefetchers from Table 3: next-line with automatic enable/disable at L1/L2
// and stride prefetchers (degree 2 at L1, degree 4 at L2). They observe the
// demand access stream at a cache level and emit line addresses to fetch.

// NextLine is a next-line prefetcher that monitors its own accuracy and
// disables itself when prefetches are not being used, re-probing
// periodically (the "automatic enable/disable" of Table 3).
type NextLine struct {
	enabled bool
	issued  [64]uint64 // ring of recently prefetched lines, 0 when empty
	// slots holds, per value bucket (line&63), a bitmask of the ring slots
	// whose live line falls in that bucket, so the usefulness check on every
	// demand access visits only the slots that can match, in index order,
	// as a full ring scan would.
	slots     [64]uint64
	head      int
	nIssued   uint64
	nUseful   uint64
	sinceEval uint64
}

// NewNextLine returns an enabled next-line prefetcher.
func NewNextLine() *NextLine { return &NextLine{enabled: true} }

// Clone returns an independent copy in the same state.
func (p *NextLine) Clone() *NextLine {
	c := *p
	return &c
}

// Enabled reports whether the prefetcher is currently active.
func (p *NextLine) Enabled() bool { return p.enabled }

// Accuracy returns useful/issued so far.
func (p *NextLine) Accuracy() float64 {
	if p.nIssued == 0 {
		return 0
	}
	return float64(p.nUseful) / float64(p.nIssued)
}

const nextLineEvalWindow = 256

// Observe is called with each demand line access; it appends the lines to
// prefetch (at most one) to buf and returns the extended slice. Appending
// into a caller-owned scratch buffer keeps the per-access hot path
// allocation-free.
func (p *NextLine) Observe(line uint64, buf []uint64) []uint64 {
	// Usefulness: the access consumes a previously issued prefetch.
	for m := p.slots[line&63]; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros64(m); p.issued[i] == line {
			p.nUseful++
			p.issued[i] = 0
			p.slots[line&63] &^= 1 << i
			break
		}
	}
	p.sinceEval++
	if p.sinceEval >= nextLineEvalWindow {
		p.sinceEval = 0
		// Disable when inaccurate, re-enable optimistically each window.
		if p.nIssued >= 32 && p.Accuracy() < 0.125 {
			p.enabled = false
		} else {
			p.enabled = true
		}
		p.nIssued, p.nUseful = 0, 0
	}
	if !p.enabled {
		return buf
	}
	p.nIssued++
	if old := p.issued[p.head]; old != 0 {
		p.slots[old&63] &^= 1 << p.head
	}
	p.issued[p.head] = line + 1
	p.slots[(line+1)&63] |= 1 << p.head
	p.head = (p.head + 1) % len(p.issued)
	return append(buf, line+1)
}

// Stride is a per-stream stride prefetcher: it detects a constant line-level
// stride per stream ID (the workload's access-stream identifier, standing in
// for the program counter) and prefetches `degree` lines ahead once the
// stride is confirmed twice.
type Stride struct {
	degree int
	// entries holds detector state by value: inserting a new stream writes
	// into the map's buckets directly instead of boxing a fresh entry on the
	// heap for every stream (a dominant allocation source at warmup rates).
	entries map[uint64]strideEntry
	limit   int
}

type strideEntry struct {
	last       uint64
	stride     int64
	confidence int
}

// NewStride builds a stride prefetcher with the given degree.
func NewStride(degree int) *Stride {
	return &Stride{degree: degree, entries: make(map[uint64]strideEntry), limit: 256}
}

// Clone returns an independent copy in the same state. The detector table
// is only ever looked up by stream, so the copy's map layout is irrelevant.
func (p *Stride) Clone() *Stride {
	c := *p
	c.entries = maps.Clone(p.entries)
	return &c
}

// Observe is called with each demand access (stream ID and line address); it
// appends lines to prefetch to buf and returns the extended slice.
func (p *Stride) Observe(stream, line uint64, buf []uint64) []uint64 {
	e, ok := p.entries[stream]
	if !ok {
		if len(p.entries) >= p.limit {
			// Bounded table: drop everything (cheap victimization that keeps
			// the model deterministic). clear keeps the buckets allocated.
			clear(p.entries)
		}
		p.entries[stream] = strideEntry{last: line}
		return buf
	}
	stride := int64(line) - int64(e.last)
	e.last = line
	if stride == 0 {
		p.entries[stream] = e
		return buf
	}
	if stride == e.stride {
		if e.confidence < 4 {
			e.confidence++
		}
	} else {
		e.stride = stride
		e.confidence = 0
		p.entries[stream] = e
		return buf
	}
	p.entries[stream] = e
	if e.confidence < 2 {
		return buf
	}
	next := int64(line)
	for i := 0; i < p.degree; i++ {
		next += stride
		if next < 0 {
			break
		}
		buf = append(buf, uint64(next))
	}
	return buf
}
