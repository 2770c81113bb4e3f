package mc

import (
	"sort"

	"dylect/internal/invariant"
)

// Invariant check names reported by AuditInvariants. Tests and the harness
// match on these; keep them stable.
const (
	CheckLevelExclusivity = "level-exclusivity" // unit level vs frame contents disagree
	CheckOwnerDesync      = "owner-desync"      // ownerUnit table vs unit state disagree
	CheckResidentDesync   = "resident-desync"   // ML2 residents list vs unit state disagree
	CheckShortCTEInvalid  = "short-cte-invalid" // ML0 short CTE out of group range
	CheckShortCTESlot     = "short-cte-slot"    // ML0 short CTE names the wrong group slot
	CheckShortCTEStale    = "short-cte-stale"   // ML1/ML2 unit with a valid-looking short CTE
	CheckFrameAlignment   = "frame-alignment"   // uncompressed unit not frame-aligned
	CheckRegionBounds     = "region-bounds"     // unit data outside the data region / inside tables
	CheckFreeFrameLeak    = "free-frame-leak"   // free frame unreachable from the Free List
	CheckFreeCountDesync  = "free-count-desync" // free-frame counter vs truth bitmap disagree
	CheckFreeChunkDesync  = "free-chunk-desync" // free-chunk byte accounting disagrees
	CheckChunkPlacement   = "chunk-placement"   // free chunk in a free or non-chunk frame
	CheckChunkOverlap     = "chunk-overlap"     // chunks in a carved frame overlap
	CheckChunkCoverage    = "chunk-coverage"    // carved frame not fully tiled by chunks
	CheckRecencyDesync    = "recency-desync"    // compressed unit still on the Recency List
	CheckTableLayout      = "table-layout"      // reserved CTE/counter table layout broken
	CheckUnitClass        = "unit-class"        // stored chunk class vs the size model disagree
)

// AuditInvariants walks the controller's complete state machine — unit
// levels, the ownerUnit frame table, the ML2 residents lists, the Free
// List, the irregular free-chunk lists, and the Recency List — and reports
// every invariant breach as a structured violation naming the offending
// unit and frame. The walk is strictly read-only, so it can run inside a
// timed simulation window without perturbing results; frames reserved by
// in-flight expansions are recognized and skipped.
//
// It implements invariant.Auditable for every design embedding Base.
func (b *Base) AuditInvariants() []invariant.Violation {
	rep := &invariant.Report{}
	b.auditLayout(rep)
	b.auditUnits(rep)
	b.auditFrames(rep)
	b.auditSpace(rep)
	b.auditChunkFrames(rep)
	b.auditRecency(rep)
	return rep.Violations
}

// auditLayout checks the reserved-table layout: the unified table starts
// where the data frames end and the DyLeCT side tables follow in order.
func (b *Base) auditLayout(rep *invariant.Report) {
	dataEnd := b.Space.FrameAddr(b.Space.NumFrames()-1) + b.P.Granularity
	if b.unifiedBase < dataEnd {
		rep.Addf(CheckTableLayout, invariant.None, invariant.None,
			"unified table base %#x overlaps data region ending %#x", b.unifiedBase, dataEnd)
	}
	if b.preGatherBase < b.unifiedBase+align64(b.nUnits*8) {
		rep.Addf(CheckTableLayout, invariant.None, invariant.None,
			"pre-gathered table base %#x overlaps unified table [%#x, +%d)",
			b.preGatherBase, b.unifiedBase, align64(b.nUnits*8))
	}
	if b.counterBase < b.preGatherBase {
		rep.Addf(CheckTableLayout, invariant.None, invariant.None,
			"counter table base %#x precedes pre-gathered base %#x", b.counterBase, b.preGatherBase)
	}
}

// auditUnits checks every unit's chunk class, level, address, ownership,
// residency and short-CTE agreement. CompressUnit sizes the chunk from the
// stored class, so the class must equal what the size model computes.
func (b *Base) auditUnits(rep *invariant.Report) {
	g := b.P.GroupSize
	for u := uint64(0); u < b.nUnits; u++ {
		st := &b.units[u]
		ui := int64(u)
		if want := b.unitClass(u); int(st.class) != want {
			rep.Addf(CheckUnitClass, ui, invariant.None,
				"stored chunk class %d, size model gives %d", st.class, want)
		}
		switch st.level {
		case ML0, ML1:
			if st.addr%b.P.Granularity != 0 {
				rep.Addf(CheckFrameAlignment, ui, invariant.None,
					"%s unit at unaligned address %#x", st.level, st.addr)
				continue
			}
			frame := b.Space.FrameOf(st.addr)
			if frame >= b.Space.NumFrames() {
				rep.Addf(CheckRegionBounds, ui, int64(frame),
					"%s unit at %#x beyond data region (%d frames)", st.level, st.addr, b.Space.NumFrames())
				continue
			}
			if b.Space.FrameIsFree(frame) {
				rep.Addf(CheckLevelExclusivity, ui, int64(frame),
					"%s unit resides in a frame on the Free List", st.level)
			}
			switch owner := b.ownerUnit[frame]; {
			case owner == ownerChunks:
				rep.Addf(CheckLevelExclusivity, ui, int64(frame),
					"%s unit resides in a frame carved into ML2 chunks", st.level)
			case owner != ui:
				rep.Addf(CheckOwnerDesync, ui, int64(frame),
					"frame owner recorded as %d, unit claims residency", owner)
			}
			if st.level == ML0 {
				if uint64(st.short) >= g {
					rep.Addf(CheckShortCTEInvalid, ui, int64(frame),
						"ML0 unit with short CTE %d (group size %d)", st.short, g)
				} else if want := b.GroupBase(u) + uint64(st.short); want != frame {
					rep.Addf(CheckShortCTESlot, ui, int64(frame),
						"short CTE %d names group slot %d but data is in frame %d", st.short, want, frame)
				}
			} else if uint64(st.short) != g {
				rep.Addf(CheckShortCTEStale, ui, int64(frame),
					"ML1 unit with live short CTE %d (want INVALID=%d)", st.short, g)
			}
		case ML2:
			frame := b.Space.FrameOf(st.addr)
			end := st.addr + b.Space.ClassBytes(int(st.class))
			if frame >= b.Space.NumFrames() || end > b.Space.FrameAddr(frame)+b.P.Granularity {
				rep.Addf(CheckRegionBounds, ui, int64(frame),
					"ML2 chunk [%#x, %#x) crosses frame or region boundary", st.addr, end)
				continue
			}
			if b.Space.FrameIsFree(frame) {
				rep.Addf(CheckLevelExclusivity, ui, int64(frame),
					"ML2 chunk resides in a frame on the Free List")
			}
			if owner := b.ownerUnit[frame]; owner != ownerChunks {
				rep.Addf(CheckOwnerDesync, ui, int64(frame),
					"ML2 chunk in frame whose owner is %d, not the chunk marker", owner)
			}
			if !b.isResident(frame, u) {
				rep.Addf(CheckResidentDesync, ui, int64(frame),
					"ML2 unit missing from its frame's residents list")
			}
			if uint64(st.short) != g {
				rep.Addf(CheckShortCTEStale, ui, int64(frame),
					"ML2 unit with live short CTE %d (want INVALID=%d)", st.short, g)
			}
		default:
			rep.Addf(CheckLevelExclusivity, ui, invariant.None,
				"unit in undefined level %d", st.level)
		}
	}
}

func (b *Base) isResident(frame, u uint64) bool {
	for _, v := range b.residents[frame] {
		if v == u {
			return true
		}
	}
	return false
}

// auditFrames checks the frame side of the ownership relation: every owned
// frame's unit points back, free frames carry the free marker, and no
// allocated frame is unaccounted for (a leak) unless reserved by an
// in-flight expansion.
func (b *Base) auditFrames(rep *invariant.Report) {
	for frame := uint64(0); frame < b.Space.NumFrames(); frame++ {
		owner := b.ownerUnit[frame]
		free := b.Space.FrameIsFree(frame)
		switch {
		case owner >= 0:
			if free {
				rep.Addf(CheckLevelExclusivity, owner, int64(frame),
					"frame owned by unit %d is on the Free List", owner)
			}
			u := uint64(owner)
			if u >= b.nUnits {
				rep.Addf(CheckOwnerDesync, owner, int64(frame), "owner beyond unit count %d", b.nUnits)
				continue
			}
			st := &b.units[u]
			if st.level == ML2 || b.Space.FrameOf(st.addr) != frame {
				rep.Addf(CheckOwnerDesync, owner, int64(frame),
					"recorded owner is %s at %#x, not resident here", st.level, st.addr)
			}
		case owner == ownerChunks:
			if free {
				rep.Addf(CheckLevelExclusivity, invariant.None, int64(frame),
					"chunk-carved frame is on the Free List")
			}
		case owner == ownerFree:
			if _, reserved := b.reservedFrames[frame]; !free && !reserved {
				rep.Addf(CheckFreeFrameLeak, invariant.None, int64(frame),
					"frame allocated but owned by nobody and not reserved")
			}
			if free {
				if lst := b.residents[frame]; len(lst) != 0 {
					rep.Addf(CheckResidentDesync, int64(lst[0]), int64(frame),
						"free frame still lists %d resident(s)", len(lst))
				}
			}
		default:
			rep.Addf(CheckOwnerDesync, invariant.None, int64(frame), "undefined owner marker %d", owner)
		}
	}
}

// auditSpace checks Space's internal accounting: the free-frame counter
// against the truth bitmap, every free frame's reachability from the Free
// List stack (an unreachable free frame is leaked — AllocFrame can never
// return it), and the free-chunk byte ledger against the chunk registry.
func (b *Base) auditSpace(rep *invariant.Report) {
	s := b.Space
	var nFree uint64
	for f := uint64(0); f < s.nFrames; f++ {
		if s.frameFree[f] {
			nFree++
		}
	}
	if nFree != s.nFree {
		rep.Addf(CheckFreeCountDesync, invariant.None, invariant.None,
			"free counter %d but %d frames marked free", s.nFree, nFree)
	}
	// The Free List stack deletes lazily, so it may hold stale entries; but
	// every genuinely free frame must appear at least once or it can never
	// be allocated again.
	onStack := make(map[uint64]struct{}, len(s.freeFrames))
	for _, f := range s.freeFrames {
		onStack[f] = struct{}{}
	}
	for f := uint64(0); f < s.nFrames; f++ {
		if s.frameFree[f] {
			if _, ok := onStack[f]; !ok {
				rep.Addf(CheckFreeFrameLeak, invariant.None, int64(f),
					"frame marked free but absent from the Free List stack")
			}
		}
	}

	var chunkBytes uint64
	perFrame := make([]uint64, s.nFrames)
	for slot, cc := range s.chunkClass {
		if cc < 0 {
			continue
		}
		class := int(cc)
		addr := s.base + uint64(slot)*s.chunkAlign
		chunkBytes += s.ClassBytes(class)
		f := s.FrameOf(addr)
		if f >= s.nFrames {
			rep.Addf(CheckChunkPlacement, invariant.None, int64(f),
				"free chunk %#x beyond the data region", addr)
			continue
		}
		perFrame[f] += s.ClassBytes(class)
		if s.frameFree[f] {
			rep.Addf(CheckChunkPlacement, invariant.None, int64(f),
				"free chunk %#x registered inside a free frame", addr)
		} else if b.ownerUnit[f] != ownerChunks {
			rep.Addf(CheckChunkPlacement, invariant.None, int64(f),
				"free chunk %#x in frame owned by %d, not carved for chunks", addr, b.ownerUnit[f])
		}
	}
	if chunkBytes != s.freeChunkBytes {
		rep.Addf(CheckFreeChunkDesync, invariant.None, invariant.None,
			"free-chunk ledger %d bytes but registry sums to %d", s.freeChunkBytes, chunkBytes)
	}
	for f := uint64(0); f < s.nFrames; f++ {
		if perFrame[f] != uint64(s.frameChunkBytes[f]) {
			rep.Addf(CheckFreeChunkDesync, invariant.None, int64(f),
				"per-frame free-chunk ledger %d bytes but registry sums to %d",
				s.frameChunkBytes[f], perFrame[f])
		}
	}
}

// auditChunkFrames checks that every chunk-carved frame is exactly tiled by
// its live ML2 chunks plus its free chunks — no overlap, no hole — and that
// every residents entry refers to a live ML2 unit actually stored there.
func (b *Base) auditChunkFrames(rep *invariant.Report) {
	type span struct {
		start, end uint64
		unit       int64 // resident unit or invariant.None for a free chunk
	}
	spans := make(map[uint64][]span)
	for f, lst := range b.residents {
		frame := uint64(f)
		for _, u := range lst {
			st := &b.units[u]
			if st.level != ML2 || b.Space.FrameOf(st.addr) != frame {
				rep.Addf(CheckResidentDesync, int64(u), int64(frame),
					"residents list names %s unit at %#x", st.level, st.addr)
				continue
			}
			spans[frame] = append(spans[frame],
				span{st.addr, st.addr + b.Space.ClassBytes(int(st.class)), int64(u)})
		}
	}
	for slot, cc := range b.Space.chunkClass {
		if cc < 0 {
			continue
		}
		addr := b.Space.base + uint64(slot)*b.Space.chunkAlign
		frame := b.Space.FrameOf(addr)
		spans[frame] = append(spans[frame],
			span{addr, addr + b.Space.ClassBytes(int(cc)), invariant.None})
	}
	for frame, ss := range spans {
		if b.ownerUnit[frame] != ownerChunks {
			continue // already reported by the unit/frame walks
		}
		sort.Slice(ss, func(i, j int) bool { return ss[i].start < ss[j].start })
		pos := b.Space.FrameAddr(frame)
		covered := uint64(0)
		for _, sp := range ss {
			if sp.start < pos {
				rep.Addf(CheckChunkOverlap, sp.unit, int64(frame),
					"chunk [%#x, %#x) overlaps preceding chunk ending %#x", sp.start, sp.end, pos)
				continue
			}
			covered += sp.end - sp.start
			pos = sp.end
		}
		if covered != b.P.Granularity {
			rep.Addf(CheckChunkCoverage, invariant.None, int64(frame),
				"chunks cover %d of %d bytes", covered, b.P.Granularity)
		}
	}
}

// auditRecency checks that only uncompressed units sit on the Recency List
// (compressed victims are removed at compression time).
func (b *Base) auditRecency(rep *invariant.Report) {
	for u := uint64(0); u < b.nUnits; u++ {
		if b.Rec.Contains(u) && b.units[u].level == ML2 {
			rep.Addf(CheckRecencyDesync, int64(u), invariant.None,
				"compressed unit still on the Recency List")
		}
	}
}

var _ invariant.Auditable = (*Base)(nil)
