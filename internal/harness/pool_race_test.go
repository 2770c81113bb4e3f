package harness

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dylect/internal/faults"
	"dylect/internal/system"
)

// TestThreeWayCancelTimeoutRetryRace drives the pool's three resilience
// mechanisms into the same cell at once: the first attempt fails transient
// (arming retry backoff), later attempts hang (arming the per-cell
// watchdog), and the runner context is canceled at a sweep of offsets that
// land before the start gate, inside the retry backoff, and inside the hung
// attempt. PR 4's tests cover these mechanisms pairwise; this is the
// three-way composition, run with concurrent waiters so the single-flight
// wait path races too (the suite runs under -race in CI). Whatever
// interleaving wins, every requester must get a coded error within a
// bounded time — no deadlock, no uncoded failure, no false success.
func TestThreeWayCancelTimeoutRetryRace(t *testing.T) {
	offsets := []time.Duration{
		0,                      // cancel before anything starts
		2 * time.Millisecond,   // usually inside attempt 1 / retry backoff
		6 * time.Millisecond,   // usually inside the retry backoff
		12 * time.Millisecond,  // usually inside the hung attempt 2
		100 * time.Millisecond, // after the watchdog has fired
	}
	for _, cancelAfter := range offsets {
		t.Run(fmt.Sprintf("cancel=%s", cancelAfter), func(t *testing.T) {
			r := NewRunner(microConfig())
			release := make(chan struct{})
			t.Cleanup(func() { close(release) })

			var attempts atomic.Int32
			r.SetCellHook(func(cellKey string) error {
				if attempts.Add(1) == 1 {
					return faults.Transient{Msg: "injected transient"}
				}
				// Hang until test cleanup; the watchdog abandons us. The
				// post-release transient keeps the abandoned goroutine from
				// running a full simulation in the background.
				<-release
				return faults.Transient{Msg: "released after abandonment"}
			})
			r.SetRetries(3, 5*time.Millisecond)
			r.SetCellTimeout(10 * time.Millisecond)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r.SetContext(ctx)
			time.AfterFunc(cancelAfter, cancel)

			// Four concurrent requesters: one becomes the starter, the rest
			// exercise the ctx-aware waiter path.
			errs := make([]error, 4)
			var wg sync.WaitGroup
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = r.Result("omnetpp", system.DesignTMCC, system.SettingHigh)
				}(i)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("pool deadlocked under cancel+timeout+retry contention")
			}

			for i, err := range errs {
				if err == nil {
					t.Fatalf("requester %d reported success; the cell can only fail", i)
				}
				if code := CellErrorCode(err); code == nil {
					t.Errorf("requester %d: uncoded failure: %v", i, err)
				}
			}
		})
	}
}

// TestViewDeadlineAbandonsWaitButNotSimulation: a request-scoped view whose
// deadline expires stops waiting with ErrCanceled, while the simulation
// keeps running for the shared cache — a later requester gets the memoized
// result without re-simulating, and ExportJSONFor sees the completed cell.
func TestViewDeadlineAbandonsWaitButNotSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := NewRunner(microConfig())
	r.SetJobs(2)

	started := make(chan struct{})
	var attempts atomic.Int32
	r.SetCellHook(func(cellKey string) error {
		if attempts.Add(1) == 1 {
			close(started)
		}
		return nil
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	view := r.WithContext(ctx)

	viewErr := make(chan error, 1)
	go func() {
		_, err := view.Result("omnetpp", system.DesignTMCC, system.SettingHigh)
		viewErr <- err
	}()
	<-started
	cancel() // deadline expires mid-simulation
	err := <-viewErr
	if err == nil {
		t.Fatal("view returned a result after its deadline expired")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("abandoned wait not classified as ErrCanceled: %v", err)
	}

	res, err := r.Result("omnetpp", system.DesignTMCC, system.SettingHigh)
	if err != nil || res == nil || res.Insts == 0 {
		t.Fatalf("shared runner cannot recover the cell after a view deadline: %v", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("the cell was attempted %d times, want 1: the view's deadline abandoned its simulation", n)
	}
	e, ok := ByName("fig4")
	if !ok {
		t.Fatal("fig4 missing")
	}
	data, err := r.ExportJSONFor([]Experiment{e})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty scoped export")
	}
}

// TestCanceledViewKeepsWorkerSlot: at jobs 1, a view is canceled while cell
// A's attempt runs. The view stops waiting, but A keeps its worker slot: cell
// B, requested next, must not start until A's attempt returns, so -jobs
// bounds what runs however many requests give up.
func TestCanceledViewKeepsWorkerSlot(t *testing.T) {
	r := NewRunner(microConfig())
	r.SetJobs(1)
	const a, b = "omnetpp/tmcc/high", "omnetpp/dylect/high"
	aStarted, release, bStarted := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var aReturned atomic.Bool
	r.SetCellHook(func(key string) error {
		switch key {
		case a:
			close(aStarted)
			<-release
			aReturned.Store(true)
		case b:
			if !aReturned.Load() {
				t.Errorf("cell %s started while %s still held the only worker slot", b, a)
			}
			close(bStarted)
		}
		// No simulation: the test is about the slot, not the result.
		return errors.New("injected failure")
	})

	ctx, cancel := context.WithCancel(context.Background())
	viewErr := make(chan error, 1)
	go func() {
		_, err := r.WithContext(ctx).Result("omnetpp", system.DesignTMCC, system.SettingHigh)
		viewErr <- err
	}()
	<-aStarted
	cancel()
	if err := <-viewErr; !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled view returned %v, want ErrCanceled", err)
	}

	bErr := make(chan error, 1)
	go func() {
		_, err := r.Result("omnetpp", system.DesignDyLeCT, system.SettingHigh)
		bErr <- err
	}()
	select {
	case <-bStarted:
		t.Fatalf("cell %s started while %s's attempt still ran", b, a)
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	select {
	case <-bErr:
	case <-time.After(30 * time.Second):
		t.Fatalf("cell %s never ran after %s's attempt returned", b, a)
	}
	if _, err := r.Result("omnetpp", system.DesignTMCC, system.SettingHigh); err == nil || errors.Is(err, ErrCanceled) {
		t.Fatalf("cell %s settled %v, want its attempt's own failure", a, err)
	}
}
