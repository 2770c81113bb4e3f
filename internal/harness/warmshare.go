package harness

import (
	"context"
	"sync"

	"dylect/internal/system"
)

// Shared functional warmup (DESIGN.md §8). Cells with equal
// system.WarmKey build the same warmup front and send their translators the
// same calls, so a plan (RunExperiments, RunShared) groups its fresh cells
// by warm key and runs each group of two or more in order (runGroup): its
// first member records the warmup and freezes a system.WarmImage, and only
// then do the others start, each restoring the image and replaying its log.
// A group holds one of the Runner's image slots (one per worker slot) from
// its first recording until its members settle, when the image is dropped.
// A plan runs at most that many of its groups at once, so its recordings run
// side by side. A group that finds every slot held (by concurrent plans)
// warms its cells up live instead of waiting.

// warmup is how a cell's attempts warm up: restoring img, recording into
// rec, or live when both are nil. A retry repeats its cell's mode.
type warmup struct {
	img *system.WarmImage
	// rec is the group's one-slot image channel; the first image sent wins.
	rec chan<- *system.WarmImage
}

// plannedCell is a fresh planned cell whose flight the plan created and will
// start.
type plannedCell struct {
	key CellSpec
	f   *flight
}

// claimPlan creates a flight for every planned cell not already cached or in
// flight, so the plan alone decides when each starts (experiments and other
// views block on the flight), and groups the fresh cells by warm key. Cells
// that share nothing, or that the store holds, come back in solo.
func (r *Runner) claimPlan(ctx context.Context, plan []CellSpec) (solo []plannedCell, groups [][]plannedCell) {
	r.mu.Lock()
	defer r.mu.Unlock()
	byKey := map[system.WarmKey]int{}
	for _, key := range plan {
		if _, ok := r.cache[key]; ok {
			continue
		}
		c := plannedCell{key, &flight{done: make(chan struct{}), ctx: ctx}}
		r.cache[key] = c.f
		if r.remote != nil || (r.checkpoint != nil && r.checkpoint.Has(key)) {
			solo = append(solo, c) // nothing to record or restore
			continue
		}
		opts, err := r.options(key)
		if err != nil {
			solo = append(solo, c)
			continue
		}
		wk := opts.WarmKey()
		i, ok := byKey[wk]
		if !ok {
			i = len(groups)
			byKey[wk] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], c)
	}
	shared := groups[:0]
	for _, g := range groups {
		if len(g) < 2 {
			solo = append(solo, g...)
			continue
		}
		shared = append(shared, g)
	}
	return solo, shared
}

// startPlan claims the plan's fresh cells and starts them in the
// background: the unshared ones at once, then the groups, running at most
// one per worker slot at a time. Once the context is done every cell of a
// group not yet running starts at once and settles as not started. The
// returned channel closes when every claimed cell has settled.
func (r *Runner) startPlan(plan []CellSpec) (settled <-chan struct{}) {
	ctx := r.callCtx()
	solo, groups := r.claimPlan(ctx, plan)
	r.mu.Lock()
	running := make(chan struct{}, cap(r.sem))
	r.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		defer wg.Wait()
		start := func(c plannedCell, w warmup) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.runCell(c.key, c.f, w)
			}()
		}
		for _, c := range solo {
			start(c, warmup{})
		}
		for _, g := range groups {
			select {
			case running <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					r.runGroup(g, start)
					<-running
				}()
			case <-ctx.Done():
				for _, c := range g {
					start(c, warmup{})
				}
			}
		}
	}()
	return done
}

// runGroup runs one warm-key group: it starts the first member recording
// into a one-slot channel and, once the image arrives, starts every other
// member from it. A member that settles without sending an image (it failed,
// hit the store, or was drained) hands the recording to the next. The group
// holds an image slot until its members settle; with none free, its members
// warm up live.
func (r *Runner) runGroup(cells []plannedCell, start func(plannedCell, warmup)) {
	r.mu.Lock()
	slot := r.images < cap(r.sem)
	if slot {
		r.images++
	}
	r.mu.Unlock()
	if !slot {
		for _, c := range cells {
			start(c, warmup{})
		}
		return
	}
	rec := make(chan *system.WarmImage, 1)
	var img *system.WarmImage
	for _, c := range cells {
		if img != nil {
			start(c, warmup{img: img})
			continue
		}
		start(c, warmup{rec: rec})
		select {
		case img = <-rec:
		case <-c.f.done:
			select {
			case img = <-rec:
			default:
			}
		}
		if img != nil && r.onImage != nil {
			r.onImage(img)
		}
	}
	for _, c := range cells {
		<-c.f.done
	}
	r.mu.Lock()
	r.images--
	r.mu.Unlock()
}
