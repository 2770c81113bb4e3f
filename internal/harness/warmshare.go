package harness

import (
	"context"
	"fmt"
	"sync"

	"dylect/internal/system"
)

// Shared functional warmup (DESIGN.md §8). Cells with equal
// system.WarmKey build the same warmup front and send their translators the
// same calls, so a plan (RunExperiments, RunShared) groups its fresh cells
// by warm key. In a group of two or more, the first member to start records
// the warmup and freezes a system.WarmImage; the others wait for it, holding
// no worker slot, then restore it and replay its log. A group holds one of
// the Runner's image slots (imageSlots) from its first recording until its
// last member has restored or settled, when the image is dropped. A plan
// keeps at most that many of its groups started, so its recordings run side
// by side. A member whose group would need an image slot while every one is
// taken (by concurrent plans) warms up live instead of waiting.

// warmGroup is one plan's cells of one warm key. Fields are guarded by
// runnerState.mu.
type warmGroup struct {
	// members counts leases that have neither taken their warm state
	// (published or restored) nor settled; the group is released at zero.
	members  int
	img      *system.WarmImage
	recorder *warmLease // the member recording, while it records
	slot     bool       // the group holds one of the Runner's image slots
	// wake is closed (and replaced) whenever a recording ends, successfully
	// or not.
	wake chan struct{}
	// freed is the plan's release signal; it has room for every group.
	freed chan<- struct{}
}

// warmLease is one planned cell's membership in its group.
type warmLease struct {
	g      *warmGroup
	member bool
}

// warmShare is the Runner's shared-warmup registry, guarded by
// runnerState.mu.
type warmShare struct {
	leases map[CellSpec]*warmLease
	// images counts the groups holding an image slot.
	images int
}

// plannedCell is a fresh planned cell whose flight the plan created and will
// start.
type plannedCell struct {
	key CellSpec
	f   *flight
}

// startGroup is a batch of planned cells the plan starts together; g is
// their shared-warmup group, nil for cells that warm up on their own.
type startGroup struct {
	cells []plannedCell
	g     *warmGroup
}

// claimPlan creates a flight for every planned cell not already cached or in
// flight, so the plan alone decides when each starts (experiments and other
// views block on the flight), and groups the fresh cells by warm key. The
// first batch holds the cells that share nothing; it starts at once. Each
// group's release sends one value on the returned channel.
func (r *Runner) claimPlan(ctx context.Context, plan []CellSpec) ([]startGroup, <-chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var solo startGroup
	var groups []startGroup
	byKey := map[system.WarmKey]int{}
	for _, key := range plan {
		if _, ok := r.cache[key]; ok {
			continue
		}
		c := plannedCell{key, &flight{done: make(chan struct{}), ctx: ctx}}
		r.cache[key] = c.f
		if r.remote != nil {
			solo.cells = append(solo.cells, c) // nothing simulates locally
			continue
		}
		opts, err := r.options(key)
		if err != nil {
			solo.cells = append(solo.cells, c)
			continue
		}
		wk := opts.WarmKey()
		i, ok := byKey[wk]
		if !ok {
			i = len(groups)
			byKey[wk] = i
			groups = append(groups, startGroup{})
		}
		groups[i].cells = append(groups[i].cells, c)
	}
	freed := make(chan struct{}, len(groups))
	out := []startGroup{solo}
	for _, sg := range groups {
		if len(sg.cells) < 2 {
			out[0].cells = append(out[0].cells, sg.cells...)
			continue
		}
		sg.g = &warmGroup{members: len(sg.cells), wake: make(chan struct{}), freed: freed}
		for _, c := range sg.cells {
			r.warm.leases[c.key] = &warmLease{g: sg.g, member: true}
		}
		out = append(out, sg)
	}
	return out, freed
}

// imageSlots is how many groups may hold a warm image at once: one per
// worker slot, so every slot can record while the plan's other cells wait
// for images. Caller holds r.mu.
func (r *Runner) imageSlots() int { return cap(r.sem) }

// startPlan claims the plan's fresh cells and starts them in the
// background: the unshared ones at once, then the groups, keeping at most
// imageSlots of them started and unreleased. Once the context is done every
// remaining cell starts at once and settles as not started. The returned
// func waits until every claimed cell has settled.
func (r *Runner) startPlan(plan []CellSpec) (wait func()) {
	ctx := r.callCtx()
	batches, freed := r.claimPlan(ctx, plan)
	r.mu.Lock()
	limit := r.imageSlots()
	r.mu.Unlock()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		started := 0 // groups started and not yet released
		for _, b := range batches {
			if b.g != nil {
				if started >= limit {
					select {
					case <-freed:
						started--
					case <-ctx.Done():
					}
				}
				started++
			}
			for _, c := range b.cells {
				wg.Add(1)
				go func(c plannedCell) {
					defer wg.Done()
					r.runCell(ctx, c.key, c.f)
				}(c)
			}
		}
	}()
	return wg.Wait
}

// warmAcquire decides how a starting cell warms up, before it takes a worker
// slot. It returns the cell's lease when the cell is to record or restore
// its group's image (warmTake tells which), or nil to warm up live. Waiting
// for a recording in flight honours ctx; when ctx is done and the recording
// has also settled, the recording's outcome wins, as in resultObs.
func (r *Runner) warmAcquire(ctx context.Context, key CellSpec) (*warmLease, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.warm.leases[key]
	if l == nil {
		return nil, nil
	}
	for {
		g := l.g
		switch {
		case g.img != nil:
			return l, nil
		case g.recorder != nil:
			wake := g.wake
			r.mu.Unlock()
			err := waitSettled(ctx, wake)
			r.mu.Lock()
			if err != nil {
				return nil, withCode(ErrCanceled,
					fmt.Errorf("harness: cell %s: not started: %w", key.CellKey(), err))
			}
		case g.slot || r.warm.images < r.imageSlots():
			if !g.slot {
				g.slot = true
				r.warm.images++
			}
			g.recorder = l
			return l, nil
		default:
			// Other groups hold every image slot: warm up live rather than
			// wait.
			r.warmLeave(l)
			return nil, nil
		}
	}
}

// waitSettled waits for done, or for ctx; when both are ready, done wins.
func waitSettled(ctx context.Context, done <-chan struct{}) error {
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		select {
		case <-done:
			return nil
		default:
			return ctx.Err()
		}
	}
}

// warmTake reports how an attempt holding lease l warms up: restore img,
// record (record true), or live (both zero). A nil lease warms up live.
func (r *Runner) warmTake(l *warmLease) (img *system.WarmImage, record bool) {
	if l == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !l.member {
		return nil, false
	}
	return l.g.img, l.g.recorder == l
}

// warmPublish ends l's recording with img and wakes the group's waiters. A
// recording abandoned by the watchdog publishes into a group that has moved
// on; it is dropped.
func (r *Runner) warmPublish(l *warmLease, img *system.WarmImage) {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := l.g
	if g.recorder != l {
		return
	}
	g.recorder = nil
	g.img = img
	close(g.wake)
	g.wake = make(chan struct{})
	r.warmLeave(l)
}

// warmRestored ends l's membership once its cell has restored the image.
func (r *Runner) warmRestored(l *warmLease) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.warmLeave(l)
}

// warmSettle drops a settling cell's lease on every settle path (success,
// error, cancel, store hit, remote): an unfinished recording is abandoned,
// waking its waiters to record again, and the cell's membership ends. The
// caller holds r.mu and has not yet evicted the cell's flight, so a later
// flight of the same key never meets this cell's lease.
func (r *Runner) warmSettle(key CellSpec) {
	l := r.warm.leases[key]
	if l == nil {
		return
	}
	delete(r.warm.leases, key)
	if g := l.g; g.recorder == l {
		g.recorder = nil
		close(g.wake)
		g.wake = make(chan struct{})
	}
	r.warmLeave(l)
}

// warmLeave ends l's membership; the last member out releases the group,
// its image and its image slot. Caller holds r.mu.
func (r *Runner) warmLeave(l *warmLease) {
	if !l.member {
		return
	}
	l.member = false
	g := l.g
	if g.members--; g.members > 0 {
		return
	}
	g.img = nil
	if g.slot {
		g.slot = false
		r.warm.images--
	}
	g.freed <- struct{}{}
}
