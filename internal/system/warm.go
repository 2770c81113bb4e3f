package system

import (
	"encoding/binary"
	"fmt"

	"dylect/internal/cache"
	"dylect/internal/mc"
	"dylect/internal/tlb"
	"dylect/internal/trace"
)

// Shared functional warmup.
//
// Functional warmup has two halves. The front — generators, page table,
// first-touch bitmap, TLBs, walker caches, L1/L2/L3 and prefetchers — never
// reads translator state; the translator only receives the front's ordered
// calls (Warm for L3 misses and dirty L3 victims, WalkHint after 4KB walks).
// So every cell with the same WarmKey builds the same front and sends its
// translator the same call sequence. One cell records that sequence while it
// warms up live and freezes the front into a WarmImage; every other cell of
// the key restores the image and replays the log into its own translator,
// which then reaches exactly the state a live warmup would have given it.
// DESIGN.md §8 describes the image format and the harness side.

// WarmKey identifies a warmup's front: every Options input the front reads,
// normalized the way Build applies it. The remaining Options fields are read
// only by the translator, the DRAM model, or the timed window;
// TestWarmKeyCoversEveryOption keeps that split exhaustive.
type WarmKey struct {
	Workload       trace.Workload
	Seed           int64
	ScaleDivisor   uint64
	FootprintFloor uint64
	WarmupAccesses uint64
	HugePages      bool
	Cfg            Config
}

// WarmKey returns the options' warm key.
func (o Options) WarmKey() WarmKey {
	k := WarmKey{
		Workload:       o.Workload,
		Seed:           o.Seed,
		ScaleDivisor:   o.ScaleDivisor,
		FootprintFloor: o.FootprintFloor,
		WarmupAccesses: o.WarmupAccesses,
		HugePages:      o.HugePages,
		Cfg:            Default(),
	}
	if k.ScaleDivisor == 0 {
		k.ScaleDivisor = 1
	}
	if o.Cfg != nil {
		k.Cfg = *o.Cfg
	}
	k.Cfg.HugePages = o.HugePages
	return k
}

// WarmImage is the frozen front of one completed functional warmup plus the
// log of translator calls that warmup made. It is immutable once frozen, so
// any number of cells may restore it concurrently.
type WarmImage struct {
	key     WarmKey
	l3      *cache.Snapshot
	cores   []coreImage
	touched []uint64
	log     []byte
}

type coreImage struct {
	gen        *trace.Mix // frozen; each restore clones it
	tlb        *tlb.Snapshot
	walker     *cache.Snapshot
	l1, l2     *cache.Snapshot
	nlL1       *cache.NextLine
	stL1, stL2 *cache.Stride
}

// Bytes returns the size of the image's cache and TLB snapshots, first-touch
// bitmap and call log, which dominate it; generators and prefetchers add a
// few KB.
func (img *WarmImage) Bytes() int {
	n := img.l3.Bytes() + 8*len(img.touched) + len(img.log)
	for _, c := range img.cores {
		n += c.walker.Bytes() + c.l1.Bytes() + c.l2.Bytes() + c.tlb.Bytes()
	}
	return n
}

// The warm log holds one varint per translator call: the zigzag-encoded
// difference from the previous call's 64-byte line index, shifted above a
// two-bit op. Every call is line-aligned (the front warms lines, evicts
// lines, and hints with the walked line), so the log is exact; streaming
// scans make most differences small, which roughly halves the log against
// a fixed 32-bit entry.
const (
	logRead uint64 = iota
	logWrite
	logHint
)

// logRecorder stands in for the translator during a recorded warmup,
// appending each call to the log before forwarding it.
type logRecorder struct {
	mc.Translator
	log  []byte
	line uint64 // the previous call's line index
}

func (r *logRecorder) add(addr, op uint64) {
	d := int64(addr>>6 - r.line)
	r.line = addr >> 6
	r.log = binary.AppendUvarint(r.log, (uint64(d<<1)^uint64(d>>63))<<2|op)
}

func (r *logRecorder) Warm(addr uint64, write bool) {
	op := logRead
	if write {
		op = logWrite
	}
	r.add(addr, op)
	r.Translator.Warm(addr, write)
}

// WalkHint logs every hint the front issues; the translator receives it only
// if it accepts hints, exactly as in a live warmup (System.walkHint).
func (r *logRecorder) WalkHint(addr uint64) {
	r.add(addr, logHint)
	if h, ok := r.Translator.(walkHinter); ok {
		h.WalkHint(addr)
	}
}

// WarmupRecorded runs the live functional warmup while logging its
// translator calls, then freezes the front into an image.
func (m *Machine) WarmupRecorded() *WarmImage {
	s := m.s
	rec := &logRecorder{Translator: s.Trans}
	s.Trans = rec
	m.Warmup()
	s.Trans = rec.Translator
	return s.freeze(m.opts.WarmKey(), rec.log)
}

// freeze captures the front after warmup; log is the recorded call sequence.
// Build gives every core a *trace.Mix.
func (s *System) freeze(key WarmKey, log []byte) *WarmImage {
	img := &WarmImage{
		key:     key,
		l3:      s.l3.Snapshot(),
		touched: append([]uint64(nil), s.touched...),
		log:     append([]byte(nil), log...), // drop append's spare capacity
	}
	for _, c := range s.cores {
		img.cores = append(img.cores, coreImage{
			gen:    c.gen.(*trace.Mix).Clone(),
			tlb:    c.tlb.Snapshot(),
			walker: c.walker.Cache().Snapshot(),
			l1:     c.l1.Snapshot(),
			l2:     c.l2.Snapshot(),
			nlL1:   c.nlL1.Clone(),
			stL1:   c.stL1.Clone(),
			stL2:   c.stL2.Clone(),
		})
	}
	return img
}

// Restore brings a freshly built machine to the warmup boundary from an
// image instead of warming up live: it loads the frozen front and replays
// the logged calls into this machine's translator. The result is exactly
// the state Warmup would have produced. The image must carry the machine's
// warm key; Restore only reads it.
func (m *Machine) Restore(img *WarmImage) error {
	if m.opts.WarmKey() != img.key {
		return fmt.Errorf("system: warm image of workload %q does not match this cell's warm key", img.key.Workload.Name)
	}
	s := m.s
	s.l3.Restore(img.l3)
	copy(s.touched, img.touched)
	for i, c := range s.cores {
		ci := img.cores[i]
		c.gen = ci.gen.Clone()
		c.tlb.Restore(ci.tlb)
		c.walker.Cache().Restore(ci.walker)
		c.l1.Restore(ci.l1)
		c.l2.Restore(ci.l2)
		c.nlL1 = ci.nlL1.Clone()
		c.stL1 = ci.stL1.Clone()
		c.stL2 = ci.stL2.Clone()
	}
	s.replay(img.log)
	return nil
}

// replay feeds a recorded call log to the system's translator.
func (s *System) replay(log []byte) {
	hinter, _ := s.Trans.(walkHinter)
	var line uint64
	for len(log) > 0 {
		v, n := binary.Uvarint(log)
		log = log[n:]
		zz := v >> 2
		line += uint64(int64(zz>>1) ^ -int64(zz&1))
		switch addr := line << 6; v & 3 {
		case logRead:
			s.Trans.Warm(addr, false)
		case logWrite:
			s.Trans.Warm(addr, true)
		case logHint:
			if hinter != nil {
				hinter.WalkHint(addr)
			}
		}
	}
}
