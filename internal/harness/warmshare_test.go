package harness

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dylect/internal/engine"
	"dylect/internal/faults"
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

// sourceCounts tallies a runner's settled cells by CellSettlement.Source.
type sourceCounts struct {
	mu sync.Mutex
	n  map[string]int
}

// countSources installs a settlement hook on r that tallies each settled
// cell's Source.
func countSources(r *Runner) *sourceCounts {
	c := &sourceCounts{n: map[string]int{}}
	r.SetCellTelemetry(func(s CellSettlement) {
		c.mu.Lock()
		c.n[s.Source]++
		c.mu.Unlock()
	})
	return c
}

// warmCounts reads how many settled cells recorded and restored a warmup.
func warmCounts(c *sourceCounts) (recorded, restored int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[SourceRecord], c.n[SourceRestore]
}

// checkNoLiveImage fails if a group still holds one of the runner's image
// slots.
func checkNoLiveImage(t *testing.T, r *Runner) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.images != 0 {
		t.Fatalf("runner still holds %d image slots after the run", r.images)
	}
}

// checkMatchesLive re-simulates every cached cell through live system.RunE
// and requires a reflect.DeepEqual result. Cells listed in fromStore came
// from a durable store, whose payload does not carry every Result field, and
// are skipped.
func checkMatchesLive(t *testing.T, r *Runner, fromStore ...CellSpec) {
	t.Helper()
	r.mu.Lock()
	cells := map[CellSpec]*flight{}
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
				t.Errorf("%s: live run: %v", k.CellKey(), err)
				return
			}
			if !reflect.DeepEqual(f.res, live) {
				t.Errorf("%s: shared-warmup result differs from live RunE\nshared: %+v\nlive:   %+v", k.CellKey(), f.res, live)
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
	src := countSources(r)
	if _, err := RunExperiments(r, Experiments(), ExecOptions{Jobs: 2}); err != nil {
		t.Fatal(err)
	}
	checkNoLiveImage(t, r)
	recorded, restored := warmCounts(src)
	if recorded == 0 || restored == 0 {
		t.Fatalf("shared path unused: %d recorded, %d restored", recorded, restored)
	}
	var want = map[string]bool{"4K": false, "embedPTB": false, "perfectCTE": false, "directToML0": false,
		"granularity": false, "groupSize": false, "samplePeriod": false}
	norm := r.normalize(CellSpec{})
	r.mu.Lock()
	for k := range r.cache {
		want["4K"] = want["4K"] || !k.HugePages
		want["embedPTB"] = want["embedPTB"] || k.EmbedPTB
		want["perfectCTE"] = want["perfectCTE"] || k.PerfectCTE
		want["directToML0"] = want["directToML0"] || k.DirectToML0
		want["granularity"] = want["granularity"] || k.Granularity != norm.Granularity
		want["groupSize"] = want["groupSize"] || k.GroupSize != norm.GroupSize
		want["samplePeriod"] = want["samplePeriod"] || k.SamplePeriod != norm.SamplePeriod
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
		src := countSources(r)
		if _, err := RunExperiments(r, experimentsNamed(t, paperFigures...), ExecOptions{Jobs: jobs}); err != nil {
			t.Fatal(err)
		}
		if recorded, restored := warmCounts(src); recorded != 4 || restored != 24 {
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
	src := countSources(r)
	var entered atomic.Int32
	all := make(chan struct{})
	r.SetCellHook(func(string) error {
		// The first cells to run are the recorders: their group-mates start
		// only once the images exist.
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
	if recorded, restored := warmCounts(src); recorded != 4 || restored != 24 {
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
	var frozen, collected atomic.Int32
	// Arm a finalizer on each group's image as it arrives, without keeping
	// it.
	r.onImage = func(img *system.WarmImage) {
		frozen.Add(1)
		runtime.SetFinalizer(img, func(*system.WarmImage) { collected.Add(1) })
	}
	if _, err := RunExperiments(r, experimentsNamed(t, "fig17", "fig18"), ExecOptions{Jobs: 2}); err != nil {
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

// TestSharedWarmupStoreHitsReleaseClaims: cells the store holds are claimed
// outside any warm-key group, so they start at once; alongside them the
// plan's other cells still record once and restore, the group's image is
// dropped, and every simulated cell matches live RunE.
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
	src := countSources(r)
	if _, err := RunExperiments(r, experimentsNamed(t, "fig17", "fig18"), ExecOptions{Jobs: 2}); err != nil {
		t.Fatal(err)
	}
	checkNoLiveImage(t, r)
	if recorded, restored := warmCounts(src); recorded != 1 || restored == 0 {
		t.Fatalf("%d recorded, %d restored alongside store hits", recorded, restored)
	}
	var hits []CellSpec
	first.mu.Lock()
	for k := range first.cache {
		hits = append(hits, k)
	}
	first.mu.Unlock()
	checkMatchesLive(t, r, hits...)
	// Now the store holds every cell of the plan, so a fresh runner starts
	// them all at once: none has a warmup to record or restore.
	fresh := NewRunner(cfg)
	fresh.AttachCheckpoint(cp)
	if _, groups := fresh.claimPlan(context.Background(), planCells(cfg, experimentsNamed(t, "fig17", "fig18"))); len(groups) != 0 {
		t.Fatalf("store-resident cells claimed into %d warm groups, want none", len(groups))
	}
}

// TestSharedWarmupRecorderPanic: the recording cell panics before the rest
// of its group has started. Only that cell fails, with ErrCellPanic; the
// next member records and the others restore, all matching live RunE.
func TestSharedWarmupRecorderPanic(t *testing.T) {
	r := NewRunner(tinySharedConfig("omnetpp"))
	src := countSources(r)
	var calls atomic.Int32
	var victim atomic.Value
	r.SetCellHook(func(key string) error {
		// The first hook call is the recorder's: the other members start
		// only once an image exists.
		if calls.Add(1) == 1 {
			victim.Store(key)
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
		if k.CellKey() != key || !errors.Is(f.err, ErrCellPanic) {
			t.Errorf("cell %s failed (%v); only the panicking recorder %s may", k.CellKey(), f.err, key)
		}
	}
	n := len(r.cache)
	r.mu.Unlock()
	if failed != 1 {
		t.Fatalf("%d cells failed, want exactly the recorder", failed)
	}
	if recorded, restored := warmCounts(src); recorded != 1 || restored != n-2 {
		t.Errorf("%d recorded, %d restored; want 1 re-recording and %d restores", recorded, restored, n-2)
	}
	checkNoLiveImage(t, r)
	checkMatchesLive(t, r)
}

// TestSharedWarmupCancelWhileWaiting: the context is canceled while the
// recorder runs and the rest of its group waits for the image. The rest
// settle as not started, the recorder (already holding a worker slot)
// drains to completion, and no image outlives the run.
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
	r.SetContext(ctx)
	_, err := RunExperiments(r, experimentsNamed(t, "fig18"), ExecOptions{Jobs: 4})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want a canceled sweep, got %v", err)
	}
	if n := r.Runs(); n != 1 {
		t.Fatalf("%d cells simulated, want only the recorder", n)
	}
	r.mu.Lock()
	for k, f := range r.cache {
		if f.err != nil {
			t.Errorf("canceled cell %s still cached: %v", k.CellKey(), f.err)
		}
	}
	r.mu.Unlock()
	checkNoLiveImage(t, r)
	// The canceled members were evicted; a later run completes the group.
	r.SetContext(context.Background())
	if _, err := RunExperiments(r, experimentsNamed(t, "fig18"), ExecOptions{Jobs: 4}); err != nil {
		t.Fatal(err)
	}
	checkNoLiveImage(t, r)
	checkMatchesLive(t, r)
}

// TestSharedWarmupSecondImageFallsBackLive: at jobs 2 the Runner keeps two
// images. While one request's two groups hold both, a second request whose
// cells would need a third image warms them up live, and finishes, instead
// of waiting for one. The first request's recorders hold their groups (and
// slots) by blocking in the settlement hook, which runs after a cell has
// given its worker slot back, so the second request's cells can run.
func TestSharedWarmupSecondImageFallsBackLive(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := NewRunner(tinySharedConfig("omnetpp", "bfs"))
	r.SetJobs(2)
	holding, release := make(chan struct{}), make(chan struct{})
	var recorders atomic.Int32
	var mu sync.Mutex
	sources := map[string]map[string]int{} // workload -> Source -> cells
	r.SetCellTelemetry(func(s CellSettlement) {
		wl, _, _ := strings.Cut(s.Key, "/")
		mu.Lock()
		if sources[wl] == nil {
			sources[wl] = map[string]int{}
		}
		sources[wl][s.Source]++
		mu.Unlock()
		if s.Source == SourceRecord {
			if recorders.Add(1) == 2 {
				close(holding)
			}
			<-release
		}
	})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	first := make(chan []ExperimentOutput, 1)
	go func() { first <- RunShared(r.WithContext(context.Background()), experimentsNamed(t, "fig18")) }()
	select {
	case <-holding:
	case <-time.After(10 * time.Second):
		t.Fatal("the first request's two recordings did not both settle")
	}
	second := r.WithContext(context.Background())
	second.Cfg.Workloads = []string{"canneal"}
	secondOut := make(chan []ExperimentOutput, 1)
	go func() { secondOut <- RunShared(second, experimentsNamed(t, "fig18")) }()
	select {
	case outs := <-secondOut:
		for _, out := range outs {
			if out.Err != nil {
				t.Fatal(out.Err)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the second request waited for an image slot held by the first")
	}
	mu.Lock()
	canneal := sources["canneal"]
	mu.Unlock()
	if len(canneal) != 1 || canneal[SourceLive] == 0 {
		t.Fatalf("second request's cells settled %v, want every one live", canneal)
	}
	unblock()
	for _, out := range <-first {
		if out.Err != nil {
			t.Fatal(out.Err)
		}
	}
	firstCells := 0
	r.mu.Lock()
	for k := range r.cache {
		if k.Workload != "canneal" {
			firstCells++
		}
	}
	r.mu.Unlock()
	// The first request's two groups each recorded once and restored every
	// other member.
	mu.Lock()
	recorded := sources["omnetpp"][SourceRecord] + sources["bfs"][SourceRecord]
	restored := sources["omnetpp"][SourceRestore] + sources["bfs"][SourceRestore]
	mu.Unlock()
	if recorded != 2 || restored != firstCells-2 {
		t.Fatalf("first request: %d recorded and %d restored, want 2 and %d", recorded, restored, firstCells-2)
	}
	checkNoLiveImage(t, r)
	checkMatchesLive(t, r)
}

// TestSharedWarmupRetriesKeepOneRecording: every cell of a group fails its
// first attempt with a transient error and succeeds on retry. The retries
// keep their warmup mode, so the group still records once and restores
// every other member, all matching live RunE.
func TestSharedWarmupRetriesKeepOneRecording(t *testing.T) {
	r := NewRunner(tinySharedConfig("omnetpp"))
	src := countSources(r)
	ci := faults.NewCellInjector()
	ci.Script("omnetpp/", faults.CellSpec{Kind: faults.CellTransient, Fail: 1})
	r.SetCellHook(ci.Hook)
	r.SetRetries(1, time.Millisecond)
	if _, err := RunExperiments(r, experimentsNamed(t, "fig18"), ExecOptions{Jobs: 2}); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	n := len(r.cache)
	r.mu.Unlock()
	if got := ci.Attempts("omnetpp/"); got != 2*n {
		t.Fatalf("%d attempts over %d cells, want two each", got, n)
	}
	if recorded, restored := warmCounts(src); recorded != 1 || restored != n-1 {
		t.Errorf("%d recorded, %d restored; want 1 and %d", recorded, restored, n-1)
	}
	checkNoLiveImage(t, r)
	checkMatchesLive(t, r)
}

// TestSharedWarmupAbandonedRecorderHandsOn: the recorder's attempt hangs
// until the watchdog abandons it. Only that cell fails, with
// ErrCellTimeout; the next member records and the rest restore, all
// matching live RunE.
func TestSharedWarmupAbandonedRecorderHandsOn(t *testing.T) {
	r := NewRunner(tinySharedConfig("omnetpp"))
	src := countSources(r)
	hung := make(chan struct{})
	t.Cleanup(func() { close(hung) })
	var calls atomic.Int32
	var victim atomic.Value
	r.SetCellHook(func(key string) error {
		if calls.Add(1) == 1 {
			victim.Store(key)
			// The recorder keeps the 300 ms watchdog it took; every other
			// member starts after it settles, under a bound that its real
			// recording cannot reach even under the race detector.
			r.SetCellTimeout(time.Minute)
			<-hung
			return errors.New("abandoned attempt released")
		}
		return nil
	})
	r.SetCellTimeout(300 * time.Millisecond)
	_, err := RunExperiments(r, experimentsNamed(t, "fig18"), ExecOptions{Jobs: 2})
	if !errors.Is(err, ErrCellTimeout) {
		t.Fatalf("want the abandoned recorder to fail fig18 with ErrCellTimeout, got %v", err)
	}
	key, _ := victim.Load().(string)
	failed := 0
	r.mu.Lock()
	for k, f := range r.cache {
		if f.err == nil {
			continue
		}
		failed++
		if k.CellKey() != key || !errors.Is(f.err, ErrCellTimeout) {
			t.Errorf("cell %s failed (%v); only the abandoned recorder %s may", k.CellKey(), f.err, key)
		}
	}
	n := len(r.cache)
	r.mu.Unlock()
	if failed != 1 {
		t.Fatalf("%d cells failed, want exactly the recorder", failed)
	}
	if recorded, restored := warmCounts(src); recorded != 1 || restored != n-2 {
		t.Errorf("%d recorded, %d restored; want 1 re-recording and %d restores", recorded, restored, n-2)
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
