package harness

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dylect/internal/engine"
	"dylect/internal/system"
)

// sharedConfig is the small configuration of the shared-warmup tests.
func sharedConfig(workloads ...string) Config {
	return Config{
		Workloads:      workloads,
		ScaleDivisor:   32,
		FootprintFloor: 96 << 20,
		WarmupAccesses: 20_000,
		Window:         10 * engine.Microsecond,
		Audit:          true,
	}
}

// tinySharedConfig shrinks sharedConfig for the concurrency tests, which
// the stress gate repeats under the race detector.
func tinySharedConfig(workloads ...string) Config {
	cfg := sharedConfig(workloads...)
	cfg.WarmupAccesses, cfg.Window, cfg.Audit = 2_000, 2*engine.Microsecond, false
	return cfg
}

func experimentsNamed(t *testing.T, names ...string) []Experiment {
	t.Helper()
	var out []Experiment
	for _, n := range names {
		out = append(out, mustByName(t, n))
	}
	return out
}

var paperFigures = []string{"fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24"}

// warmCounts reads the runner's recorded and restored warmup counts.
func warmCounts(r *Runner) (recorded, restored int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.warm.recorded, r.warm.restored
}

// checkNoLiveImage fails if the runner still holds a warm image or lease.
func checkNoLiveImage(t *testing.T, r *Runner) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.warm.images != 0 || len(r.warm.leases) != 0 {
		t.Fatalf("runner still holds warm state after the run: %d image slots, %d leases", r.warm.images, len(r.warm.leases))
	}
}

// checkMatchesLive re-simulates every cached cell through live system.RunE
// and requires a reflect.DeepEqual result. Cells listed in fromStore came
// from a durable store, whose payload does not carry every Result field, and
// are skipped.
func checkMatchesLive(t *testing.T, r *Runner, fromStore ...runKey) {
	t.Helper()
	r.mu.Lock()
	cells := map[runKey]*flight{}
	for k, f := range r.cache {
		cells[k] = f
	}
	r.mu.Unlock()
	for _, k := range fromStore {
		delete(cells, k)
	}
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for k, f := range cells {
		if f.err != nil {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			opts, err := r.options(k)
			if err != nil {
				t.Error(err)
				return
			}
			live, err := system.RunE(opts)
			if err != nil {
				t.Errorf("%s: live run: %v", k, err)
				return
			}
			if !reflect.DeepEqual(f.res, live) {
				t.Errorf("%s: shared-warmup result differs from live RunE\nshared: %+v\nlive:   %+v", k, f.res, live)
			}
		}()
	}
	wg.Wait()
}

// TestSharedWarmupMatchesLiveEveryExperiment runs every registered
// experiment's cells for an instanced and a non-instanced workload through
// the shared path, audited, and requires each Result to equal live RunE's:
// huge and 4KB pages, PTB-embedding hints, all four designs, perfect CTEs,
// and the granularity, group-size, sample-period and DirectToML0 variants.
func TestSharedWarmupMatchesLiveEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := NewRunner(sharedConfig("omnetpp", "canneal"))
	if _, err := RunExperiments(r, Experiments(), ExecOptions{Jobs: 2}); err != nil {
		t.Fatal(err)
	}
	checkNoLiveImage(t, r)
	recorded, restored := warmCounts(r)
	if recorded == 0 || restored == 0 {
		t.Fatalf("shared path unused: %d recorded, %d restored", recorded, restored)
	}
	var want = map[string]bool{"4K": false, "embedPTB": false, "perfectCTE": false, "directToML0": false,
		"granularity": false, "groupSize": false, "samplePeriod": false}
	norm := r.normalize(defaultVariant())
	r.mu.Lock()
	for k := range r.cache {
		want["4K"] = want["4K"] || !k.hugePages
		want["embedPTB"] = want["embedPTB"] || k.embedPTB
		want["perfectCTE"] = want["perfectCTE"] || k.perfectCTE
		want["directToML0"] = want["directToML0"] || k.directToML0
		want["granularity"] = want["granularity"] || k.granularity != norm.granularity
		want["groupSize"] = want["groupSize"] || k.groupSize != norm.groupSize
		want["samplePeriod"] = want["samplePeriod"] || k.samplePeriod != norm.samplePeriod
	}
	r.mu.Unlock()
	for v, seen := range want {
		if !seen {
			t.Errorf("no cell exercised the %s variant", v)
		}
	}
	checkMatchesLive(t, r)
}

// TestSharedWarmupCounts: the results-section sweep over the Quick
// workloads warms up once per workload and restores every other cell, at
// jobs 1 and 2, and still counts all 28 cells as simulations.
func TestSharedWarmupCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, jobs := range []int{1, 2} {
		r := NewRunner(tinySharedConfig(Quick().Workloads...))
		if _, err := RunExperiments(r, experimentsNamed(t, paperFigures...), ExecOptions{Jobs: jobs}); err != nil {
			t.Fatal(err)
		}
		if recorded, restored := warmCounts(r); recorded != 4 || restored != 24 {
			t.Errorf("jobs=%d: %d warmups recorded and %d restored, want 4 and 24", jobs, recorded, restored)
		}
		if n := r.Runs(); n != 28 {
			t.Errorf("jobs=%d: %d simulations, want 28", jobs, n)
		}
		checkNoLiveImage(t, r)
	}
}

// TestSharedWarmupRecordsSideBySide: a plan keeps one group started per
// worker slot, so at jobs 8 the four workloads' recordings run at once, as
// their live warmups would, instead of one after another.
func TestSharedWarmupRecordsSideBySide(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	const jobs, groups = 8, 4
	r := NewRunner(tinySharedConfig(Quick().Workloads...))
	var entered atomic.Int32
	all := make(chan struct{})
	r.SetCellHook(func(string) error {
		// The first cells to run are the recorders: their group-mates wait
		// for the images holding no worker slot.
		if entered.Add(1) == groups {
			close(all)
		}
		select {
		case <-all:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("recordings did not run side by side")
		}
	})
	if _, err := RunExperiments(r, experimentsNamed(t, paperFigures...), ExecOptions{Jobs: jobs}); err != nil {
		t.Fatal(err)
	}
	if recorded, restored := warmCounts(r); recorded != 4 || restored != 24 {
		t.Errorf("%d warmups recorded and %d restored, want 4 and 24", recorded, restored)
	}
	checkNoLiveImage(t, r)
}

// TestSharedWarmupImagesAreReleased: once RunExperiments and RunShared
// return, no warm image is reachable — neither from the runner nor from any
// memoized Result — so every image the runs froze is garbage collected.
func TestSharedWarmupImagesAreReleased(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := NewRunner(tinySharedConfig("omnetpp", "bfs"))
	var seen sync.Map
	var frozen, collected atomic.Int32
	// The progress callback runs under the runner's lock, so it may read
	// the registry: arm a finalizer on each live image without keeping it.
	watch := func(int, int) {
		for _, l := range r.warm.leases {
			if img := l.g.img; img != nil {
				if _, dup := seen.LoadOrStore(reflect.ValueOf(img).Pointer(), true); !dup {
					frozen.Add(1)
					runtime.SetFinalizer(img, func(*system.WarmImage) { collected.Add(1) })
				}
			}
		}
	}
	if _, err := RunExperiments(r, experimentsNamed(t, "fig17", "fig18"), ExecOptions{Jobs: 2, Progress: watch}); err != nil {
		t.Fatal(err)
	}
	checkNoLiveImage(t, r)
	view := r.WithContext(context.Background())
	view.Cfg.Workloads = []string{"canneal"}
	for _, out := range RunShared(view, experimentsNamed(t, "fig18")) {
		if out.Err != nil {
			t.Fatal(out.Err)
		}
	}
	checkNoLiveImage(t, r)
	if frozen.Load() == 0 {
		t.Fatal("no image was observed live during the run")
	}
	for deadline := time.Now().Add(5 * time.Second); collected.Load() < frozen.Load() && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if c, f := collected.Load(), frozen.Load(); c < f {
		t.Fatalf("%d of %d warm images still reachable after the runs returned", f-c, f)
	}
}

// TestSharedWarmupStoreHitsReleaseClaims: members of a warm-key group that
// settle as store hits release their claims like any other settle path, so
// the group's image is dropped and every simulated member still matches
// live RunE.
func TestSharedWarmupStoreHitsReleaseClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := tinySharedConfig("omnetpp")
	dir := t.TempDir()
	cp, err := OpenCheckpoint(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := NewRunner(cfg)
	first.AttachCheckpoint(cp)
	if _, err := RunExperiments(first, experimentsNamed(t, "fig17"), ExecOptions{Jobs: 2}); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(cfg)
	r.AttachCheckpoint(cp)
	if _, err := RunExperiments(r, experimentsNamed(t, "fig17", "fig18"), ExecOptions{Jobs: 2}); err != nil {
		t.Fatal(err)
	}
	checkNoLiveImage(t, r)
	if recorded, restored := warmCounts(r); recorded != 1 || restored == 0 {
		t.Fatalf("%d recorded, %d restored alongside store hits", recorded, restored)
	}
	var hits []runKey
	first.mu.Lock()
	for k := range first.cache {
		hits = append(hits, k)
	}
	first.mu.Unlock()
	checkMatchesLive(t, r, hits...)
}

// TestSharedWarmupRecorderPanic: the recording cell panics while the rest of
// its group waits for the image. Only that cell fails, with ErrCellPanic;
// a waiter records again and the others restore, all matching live RunE.
func TestSharedWarmupRecorderPanic(t *testing.T) {
	r := NewRunner(tinySharedConfig("omnetpp"))
	var calls atomic.Int32
	var victim atomic.Value
	r.SetCellHook(func(key string) error {
		// The first hook call is the recorder's: the other members are
		// waiting for its image and hold no worker slot.
		if calls.Add(1) == 1 {
			victim.Store(key)
			// Give the waiters time to queue; the assertions below hold
			// whether or not they have.
			time.Sleep(20 * time.Millisecond)
			panic("injected recorder panic")
		}
		return nil
	})
	_, err := RunExperiments(r, experimentsNamed(t, "fig18"), ExecOptions{Jobs: 4})
	if err == nil || !errors.Is(err, ErrCellPanic) {
		t.Fatalf("want the recorder's panic to fail fig18 with ErrCellPanic, got %v", err)
	}
	key, _ := victim.Load().(string)
	failed := 0
	r.mu.Lock()
	for k, f := range r.cache {
		if f.err == nil {
			continue
		}
		failed++
		if k.String() != key || !errors.Is(f.err, ErrCellPanic) {
			t.Errorf("cell %s failed (%v); only the panicking recorder %s may", k, f.err, key)
		}
	}
	n := len(r.cache)
	r.mu.Unlock()
	if failed != 1 {
		t.Fatalf("%d cells failed, want exactly the recorder", failed)
	}
	if recorded, restored := warmCounts(r); recorded != 1 || restored != n-2 {
		t.Errorf("%d recorded, %d restored; want 1 re-recording and %d restores", recorded, restored, n-2)
	}
	checkNoLiveImage(t, r)
	checkMatchesLive(t, r)
}

// TestSharedWarmupCancelWhileWaiting: the context is canceled while the
// recorder runs and its group waits for the image. The waiters settle as
// not started, the recorder (already holding a worker slot) drains to
// completion, and no image outlives the run.
func TestSharedWarmupCancelWhileWaiting(t *testing.T) {
	r := NewRunner(tinySharedConfig("omnetpp"))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int32
	r.SetCellHook(func(string) error {
		if calls.Add(1) == 1 {
			cancel()
		}
		return nil
	})
	_, err := RunExperiments(r, experimentsNamed(t, "fig18"), ExecOptions{Jobs: 4, Context: ctx})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want a canceled sweep, got %v", err)
	}
	if n := r.Runs(); n != 1 {
		t.Fatalf("%d cells simulated, want only the recorder", n)
	}
	r.mu.Lock()
	for k, f := range r.cache {
		if f.err != nil {
			t.Errorf("canceled cell %s still cached: %v", k, f.err)
		}
	}
	r.mu.Unlock()
	checkNoLiveImage(t, r)
	// The canceled waiters were evicted; a later run completes the group.
	if _, err := RunExperiments(r, experimentsNamed(t, "fig18"), ExecOptions{Jobs: 4, Context: context.Background()}); err != nil {
		t.Fatal(err)
	}
	checkNoLiveImage(t, r)
	checkMatchesLive(t, r)
}

// TestSharedWarmupSecondImageFallsBackLive: at jobs 2 the Runner keeps two
// images. While one request's two recordings hold both, a second request
// whose cells would need a third image decides to warm them up live, before
// either image is published, instead of waiting for one.
func TestSharedWarmupSecondImageFallsBackLive(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := NewRunner(tinySharedConfig("omnetpp", "bfs"))
	r.SetJobs(2)
	holding, release := make(chan struct{}), make(chan struct{})
	var entered atomic.Int32
	r.SetCellHook(func(key string) error {
		// The first two cells in worker slots are the first request's
		// recorders, one per workload: their group-mates wait for the
		// images holding no slot. Both keep their group's image slot.
		if n := entered.Add(1); n <= 2 {
			if n == 2 {
				close(holding)
			}
			<-release
		}
		return nil
	})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	first := make(chan []ExperimentOutput, 1)
	go func() { first <- RunShared(r.WithContext(context.Background()), experimentsNamed(t, "fig18")) }()
	select {
	case <-holding:
	case <-time.After(10 * time.Second):
		t.Fatal("the first request's two recordings did not start side by side")
	}
	second := r.WithContext(context.Background())
	second.Cfg.Workloads = []string{"canneal"}
	secondOut := make(chan []ExperimentOutput, 1)
	go func() { secondOut <- RunShared(second, experimentsNamed(t, "fig18")) }()
	// Every canneal cell has left its group (chosen live warmup) while both
	// recorders still hold their image slots.
	decided := func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		n := 0
		for k, l := range r.warm.leases {
			if k.workload == "canneal" {
				if l.member {
					return false
				}
				n++
			}
		}
		return n > 0
	}
	for deadline := time.Now().Add(10 * time.Second); !decided(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("second request's cells did not choose live warmup while every image slot was held")
		}
	}
	if recorded, restored := warmCounts(r); recorded != 0 || restored != 0 {
		t.Fatalf("an image was published while both recorders were held: %d recorded, %d restored", recorded, restored)
	}
	unblock()
	for _, out := range append(<-first, <-secondOut...) {
		if out.Err != nil {
			t.Fatal(out.Err)
		}
	}
	firstCells := 0
	r.mu.Lock()
	for k := range r.cache {
		if k.workload != "canneal" {
			firstCells++
		}
	}
	r.mu.Unlock()
	// The first request's two groups each recorded once and restored every
	// other member; the canneal cells neither recorded nor restored.
	if recorded, restored := warmCounts(r); recorded != 2 || restored != firstCells-2 {
		t.Fatalf("%d recorded and %d restored, want 2 and %d (none for the second request)", recorded, restored, firstCells-2)
	}
	checkNoLiveImage(t, r)
	checkMatchesLive(t, r)
}

// TestWaitSettledPrefersTheSettledOutcome: when the context is done and the
// awaited event has happened too, the event wins, every time.
func TestWaitSettledPrefersTheSettledOutcome(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan struct{})
	close(done)
	for i := 0; i < 1000; i++ {
		if err := waitSettled(ctx, done); err != nil {
			t.Fatalf("iteration %d: both ready resolved to %v", i, err)
		}
	}
	if err := waitSettled(ctx, make(chan struct{})); !errors.Is(err, context.Canceled) {
		t.Fatalf("unsettled wait under a done context returned %v", err)
	}
}
