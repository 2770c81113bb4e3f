package mc

import (
	"dylect/internal/dram"
	"dylect/internal/metrics"
)

// DRAM page groups and short-CTE mechanics (Section IV-B). A unit's group
// is the GroupSize consecutive frames starting at hash(u); its short CTE
// selects the frame within the group. These live in Base because both
// DyLeCT (internal/core) and the naive split-cache design (internal/naive)
// build on them.

// GroupBase returns the first frame of unit u's DRAM page group:
// hash(u) = G * (u mod (M/G)) — adjacent units land in distinct groups and
// the output range spans all of DRAM, so ML0 can grow to the whole memory.
func (b *Base) GroupBase(u uint64) uint64 {
	g := b.P.GroupSize
	m := b.Space.NumFrames()
	return g * (u % (m / g))
}

// GroupSlots returns the frames of u's DRAM page group.
func (b *Base) GroupSlots(u uint64) []uint64 {
	base := b.GroupBase(u)
	slots := make([]uint64, b.P.GroupSize)
	for i := range slots {
		slots[i] = base + uint64(i)
	}
	return slots
}

// FrameOwner returns the unit occupying a frame, or ownerFree/ownerChunks
// markers (negative values).
func (b *Base) FrameOwner(frame uint64) int64 { return b.ownerUnit[frame] }

// FrameHoldsChunks reports whether the frame is carved into compressed
// chunks.
func (b *Base) FrameHoldsChunks(frame uint64) bool {
	return b.ownerUnit[frame] == ownerChunks
}

// Counter returns the unit's 5-bit sampled access counter.
func (b *Base) Counter(u uint64) uint8 { return b.units[u].counter }

// counterMax is the 5-bit saturation value.
const counterMax = 31

// BumpCounter increments a unit's access counter; on saturation all units
// competing for the same DRAM page group are halved (Banshee-style aging),
// which keeps the comparisons meaningful over time.
func (b *Base) BumpCounter(u uint64) {
	if b.units[u].counter < counterMax {
		b.units[u].counter++
		return
	}
	g := b.P.GroupSize
	groups := b.Space.NumFrames() / g
	for v := u % groups; v < b.nUnits; v += groups {
		b.units[v].counter /= 2
	}
}

// emitDisplace records a space-management event: an occupant displaced to a
// Free List frame, or a carved chunk frame vacated (n = chunks relocated).
func (b *Base) emitDisplace(name string, u, n uint64) {
	b.P.Obs.Emit(b.Eng.Now(), metrics.Event{
		Cat: metrics.CatSpace, Name: name, Unit: u, N: n,
	})
}

// moveUnitFrame relocates an uncompressed unit's data from its current
// frame to dst (already claimed by the caller), charging migration traffic
// and freeing the old frame.
func (b *Base) moveUnitFrame(u, dst uint64) {
	st := &b.units[u]
	old := b.Space.FrameOf(st.addr)
	b.ReadBlocks(st.addr, b.frameBlocks, dram.ClassMigration, true, nil)
	b.WriteBlocks(b.Space.FrameAddr(dst), b.frameBlocks, dram.ClassMigration, true)
	b.Space.FreeFrame(old)
	b.ownerUnit[old] = ownerFree
	b.ownerUnit[dst] = int64(u)
	st.addr = b.Space.FrameAddr(dst)
}

// DemoteToML1 switches an ML0 unit back to a long CTE, migrating it to a
// Free List frame (Section IV-B, ML0→ML1 demotion).
func (b *Base) DemoteToML1(u uint64) bool {
	st := &b.units[u]
	if st.level != ML0 {
		return false
	}
	dst, _, ok := b.EnsureFrame()
	if !ok {
		return false
	}
	if st.level != ML0 {
		// EnsureFrame's emergency compression claimed u itself.
		b.Space.FreeFrame(dst)
		return false
	}
	b.moveUnitFrame(u, dst)
	st.level = ML1
	st.short = uint8(b.P.GroupSize)
	b.updateTables(u, true)
	b.S.Demotions.Inc()
	b.emitLevel("demote", u, ML0, ML1, "policy")
	return true
}

// TryPromote attempts the ML1→ML0 promotion of u (Section IV-B): a group
// slot is freed — preferring a free frame, then a chunk frame whose
// compressed residents migrate out via their long CTEs, then (when u's
// sampled counter exceeds theirs by the threshold) displacing an ML1
// occupant or demoting the coldest ML0 occupant — and u migrates in,
// switching to a short CTE. Returns true if promoted.
func (b *Base) TryPromote(u uint64, threshold uint8) bool {
	st := &b.units[u]
	if st.level != ML1 {
		return false
	}
	if _, busy := b.expandWait[u]; busy {
		return false
	}
	// The promotion policy fetches a block of access counters to compare
	// against the current occupants (Section IV-D, Logic).
	b.ReadBlocks(b.CounterBlockAddr(u*b.pagesPerUnit), 1, dram.ClassMigration, true, nil)

	base := b.GroupBase(u)
	ownFrame := b.Space.FrameOf(st.addr)
	freeSlot := int64(-1)
	chunkSlot := int64(-1)
	ml1Slot, ml1Cold := int64(-1), uint8(255)
	ml0Slot, ml0Cold := int64(-1), uint8(255)
	for i := uint64(0); i < b.P.GroupSize; i++ {
		slot := base + i
		if slot == ownFrame {
			// u already sits in its own group: adopt the short CTE with no
			// data movement.
			st.level = ML0
			st.short = uint8(i)
			b.updateTables(u, true)
			b.S.Promotions.Inc()
			b.emitLevel("promote", u, ML1, ML0, "in-place")
			return true
		}
		if b.Space.FrameIsFree(slot) {
			if freeSlot < 0 {
				freeSlot = int64(slot)
			}
			continue
		}
		owner := b.ownerUnit[slot]
		if owner == ownerChunks {
			if chunkSlot < 0 {
				chunkSlot = int64(slot)
			}
			continue
		}
		if owner < 0 {
			continue // reserved
		}
		q := uint64(owner)
		if _, busy := b.expandWait[q]; busy {
			continue
		}
		c := b.units[q].counter
		if b.units[q].level == ML0 {
			if c < ml0Cold {
				ml0Slot, ml0Cold = int64(slot), c
			}
		} else if c < ml1Cold {
			ml1Slot, ml1Cold = int64(slot), c
		}
	}

	var slot uint64
	var how string
	switch {
	case freeSlot >= 0:
		if !b.Space.AllocSpecificFrame(uint64(freeSlot)) {
			return false
		}
		slot = uint64(freeSlot)
		how = "free-slot"
	case chunkSlot >= 0:
		// Migrate the compressed occupants out via their long CTEs.
		if !b.DisplaceChunkFrame(uint64(chunkSlot)) {
			return false
		}
		if st.level != ML1 {
			return false // displacement churn claimed u
		}
		if !b.Space.AllocSpecificFrame(uint64(chunkSlot)) {
			return false
		}
		slot = uint64(chunkSlot)
		how = "chunk-displace"
	case ml1Slot >= 0 && st.counter > ml1Cold+threshold:
		// Displace the colder uncompressed occupant to a Free List frame
		// (it keeps its long CTE).
		q := uint64(b.ownerUnit[ml1Slot])
		dst, _, ok := b.EnsureFrame()
		if !ok {
			return false
		}
		if st.level != ML1 || b.units[q].level == ML2 ||
			uint64(b.ownerUnit[ml1Slot]) != q {
			// Emergency compression disturbed u or the occupant.
			b.Space.FreeFrame(dst)
			return false
		}
		b.moveUnitFrame(q, dst)
		b.updateTables(q, false)
		b.S.Displacements.Inc()
		b.emitDisplace("displace", q, 1)
		if !b.Space.AllocSpecificFrame(uint64(ml1Slot)) {
			return false
		}
		slot = uint64(ml1Slot)
		how = "ml1-displace"
	case ml0Slot >= 0 && st.counter > ml0Cold+threshold:
		// All candidates are ML0: demote the coldest.
		q := uint64(b.ownerUnit[ml0Slot])
		if !b.DemoteToML1(q) {
			return false
		}
		if st.level != ML1 {
			return false // emergency compression inside the demotion took u
		}
		if !b.Space.AllocSpecificFrame(uint64(ml0Slot)) {
			return false
		}
		slot = uint64(ml0Slot)
		how = "ml0-demote"
	default:
		return false
	}

	b.moveUnitFrame(u, slot)
	st.level = ML0
	st.short = uint8(slot - base)
	b.updateTables(u, true)
	b.S.Promotions.Inc()
	b.emitLevel("promote", u, ML1, ML0, how)
	return true
}

// DisplaceChunkFrame relocates every compressed chunk out of a carved
// frame (migrating each resident ML2 unit via its long CTE) and frees the
// frame. It reports success; on allocation failure the frame keeps its
// unmoved residents.
func (b *Base) DisplaceChunkFrame(frame uint64) bool {
	if b.ownerUnit[frame] != ownerChunks {
		return false
	}
	// A resident mid-expansion has an ExpandUnit finish callback in flight
	// that will free its chunk at the captured address; relocating the chunk
	// under it would make that callback free space now owned by someone else
	// and orphan the relocated copy. Leave the frame alone this round.
	for _, q := range b.residents[frame] {
		if _, busy := b.expandWait[q]; busy {
			return false
		}
	}
	// Reclaim the frame's free chunks first so relocation cannot allocate
	// back into the frame being vacated.
	b.Space.EvictFrameChunks(frame)
	b.displacing = append(b.displacing[:0], b.residents[frame]...)
	var moved uint64
	for _, q := range b.displacing {
		st := &b.units[q]
		if st.level != ML2 || b.Space.FrameOf(st.addr) != frame {
			b.removeResident(frame, q) // stale entry
			continue
		}
		class := int(st.class)
		dst, carved, ok := b.Space.AllocChunk(class)
		if !ok {
			return false
		}
		if carved {
			b.ownerUnit[b.Space.FrameOf(dst)] = ownerChunks
		}
		n := b.chunkBlocks(class)
		b.ReadBlocks(st.addr, n, dram.ClassMigration, true, nil)
		b.WriteBlocks(dst, n, dram.ClassMigration, true)
		b.removeResident(frame, q)
		st.addr = dst
		b.addResident(b.Space.FrameOf(dst), q)
		b.updateTables(q, false)
		moved++
	}
	b.Space.FreeFrame(frame)
	b.ownerUnit[frame] = ownerFree
	b.S.Displacements.Inc()
	b.P.Obs.Emit(b.Eng.Now(), metrics.Event{
		Cat: metrics.CatSpace, Name: "chunk-displace",
		Addr: b.Space.FrameAddr(frame), N: moved,
	})
	return true
}

// moveToSlot migrates an uncompressed unit into an already-claimed group
// slot and switches it to a short CTE (ML0).
func (b *Base) moveToSlot(u, slot uint64) {
	st := &b.units[u]
	b.moveUnitFrame(u, slot)
	st.level = ML0
	st.short = uint8(slot - b.GroupBase(u))
	b.updateTables(u, true)
	b.S.Promotions.Inc()
	b.emitLevel("promote", u, ML1, ML0, "slot-claim")
}

// displaceAndClaim evicts the data-frame occupant of slot to a Free List
// frame and moves u in with a short CTE — the unconditional double movement
// of the naive design (Section IV-A1). It reports success; chunk frames and
// busy occupants are not movable.
func (b *Base) displaceAndClaim(u, slot uint64) bool {
	owner := b.ownerUnit[slot]
	if owner < 0 || uint64(owner) == u {
		return false
	}
	q := uint64(owner)
	if _, busy := b.expandWait[q]; busy {
		return false
	}
	dst, _, ok := b.EnsureFrame()
	if !ok {
		return false
	}
	if b.units[u].level != ML1 || b.units[q].level == ML2 || b.ownerUnit[slot] != owner {
		b.Space.FreeFrame(dst)
		return false
	}
	b.moveUnitFrame(q, dst)
	if b.units[q].level == ML0 {
		b.units[q].level = ML1
		b.units[q].short = uint8(b.P.GroupSize)
		b.updateTables(q, true)
		b.S.Demotions.Inc()
		b.emitLevel("demote", q, ML0, ML1, "displaced")
	} else {
		b.updateTables(q, false)
	}
	b.S.Displacements.Inc()
	b.emitDisplace("displace", q, 1)
	if !b.Space.AllocSpecificFrame(slot) {
		return false
	}
	b.moveToSlot(u, slot)
	return true
}

// ClaimGroupSlot moves a freshly expanded ML1 unit into its DRAM page group
// whatever the occupants' heat: a free slot if one exists (one movement),
// else a slot whose occupant it displaces — a chunk frame's compressed
// residents or an uncompressed page — paying the double movement of
// Section IV-A1. The naive design places every expansion this way, as does
// DyLeCT's DirectToML0 ablation. With no claimable slot the unit stays in
// ML1.
func (b *Base) ClaimGroupSlot(u uint64) {
	if b.units[u].level != ML1 {
		return
	}
	slots := b.GroupSlots(u)
	for _, s := range slots {
		if b.Space.FrameIsFree(s) && b.Space.AllocSpecificFrame(s) {
			b.moveToSlot(u, s)
			return
		}
	}
	for _, s := range slots {
		if b.FrameHoldsChunks(s) {
			if b.DisplaceChunkFrame(s) && b.units[u].level == ML1 && b.Space.AllocSpecificFrame(s) {
				b.moveToSlot(u, s)
				return
			}
			continue
		}
		if b.displaceAndClaim(u, s) {
			return
		}
	}
}

// ShortCTEFrame computes the frame an ML0 unit lives in from its short CTE
// — the translation the MC performs on a pre-gathered hit:
// DRAMPage(u) = hash(u) + shortCTE.
func (b *Base) ShortCTEFrame(u uint64) uint64 {
	return b.GroupBase(u) + uint64(b.units[u].short)
}
