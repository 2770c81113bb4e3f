package harness

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"dylect/internal/faults"
	"dylect/internal/system"
)

// TestWatchdogAbandonsHungCell scripts an infinite hang into one cell and
// checks the watchdog abandons it: the cell fails with a timeout error
// naming it, within a bounded wall-clock time, and the worker slot is
// released so other cells still run.
func TestWatchdogAbandonsHungCell(t *testing.T) {
	r := NewRunner(microConfig())
	r.SetJobs(1) // a leaked slot would deadlock the follow-up cell
	ci := faults.NewCellInjector()
	ci.Script("omnetpp/tmcc/high", faults.CellSpec{Kind: faults.CellHang}) // hangs forever
	r.SetCellHook(ci.Hook)
	r.SetCellTimeout(150 * time.Millisecond)

	start := time.Now()
	_, err := r.Result("omnetpp", system.DesignTMCC, system.SettingHigh)
	if err == nil {
		t.Fatal("hung cell reported success")
	}
	if !errors.Is(err, ErrCellTimeout) {
		t.Fatalf("timeout not classified as ErrCellTimeout: %v", err)
	}
	if code := CellErrorCode(err); code != ErrCellTimeout {
		t.Fatalf("CellErrorCode = %v, want ErrCellTimeout", code)
	}
	if !strings.Contains(err.Error(), "omnetpp/tmcc/high") {
		t.Fatalf("timeout error does not name the cell key: %v", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("watchdog took %v to fire", waited)
	}

	// The slot the hung cell occupied must be free again. Lift the timeout
	// first: the follow-up cell is a real simulation, and under -race it can
	// legitimately outlast the tight budget used to trip the watchdog above.
	if testing.Short() {
		return
	}
	r.SetCellTimeout(0)
	if _, err := r.Result("omnetpp", system.DesignNoComp, system.SettingNone); err != nil {
		t.Fatalf("pool wedged after watchdog abandonment: %v", err)
	}
}

// TestTransientRetrySucceeds scripts two transient failures before success
// and checks bounded retry recovers the cell, with the scripted number of
// attempts.
func TestTransientRetrySucceeds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := NewRunner(microConfig())
	ci := faults.NewCellInjector()
	ci.Script("omnetpp/tmcc/high", faults.CellSpec{Kind: faults.CellTransient, Fail: 2})
	r.SetCellHook(ci.Hook)
	r.SetRetries(3, time.Millisecond)

	res, err := r.Result("omnetpp", system.DesignTMCC, system.SettingHigh)
	if err != nil {
		t.Fatalf("retry did not recover the transient failure: %v", err)
	}
	if res == nil || res.Insts == 0 {
		t.Fatal("recovered cell has no result")
	}
	if got := ci.Attempts("omnetpp/tmcc/high"); got != 3 {
		t.Fatalf("attempts = %d, want 3 (2 failures + 1 success)", got)
	}
}

// TestTransientRetryBudgetExhausted: with fewer retries than scripted
// failures the cell fails, and the error still reads as transient.
func TestTransientRetryBudgetExhausted(t *testing.T) {
	r := NewRunner(microConfig())
	ci := faults.NewCellInjector()
	ci.Script("omnetpp/tmcc/high", faults.CellSpec{Kind: faults.CellTransient, Fail: 5})
	r.SetCellHook(ci.Hook)
	r.SetRetries(1, time.Millisecond)

	_, err := r.Result("omnetpp", system.DesignTMCC, system.SettingHigh)
	if err == nil {
		t.Fatal("cell succeeded despite unexhausted transient failures")
	}
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("exhausted retry not classified as ErrTransient: %v", err)
	}
	if !faults.IsTransient(err) {
		t.Fatalf("Transient() marker lost through wrapping: %v", err)
	}
	if got := ci.Attempts("omnetpp/tmcc/high"); got != 2 {
		t.Fatalf("attempts = %d, want 2 (initial + 1 retry)", got)
	}
}

// TestTransientRetryStopsAtDeadline: a request view's deadline that passes
// before the retry backoff ends starts no further attempt (nobody would wait
// for its simulation); the cell settles ErrCanceled after one attempt.
func TestTransientRetryStopsAtDeadline(t *testing.T) {
	r := NewRunner(microConfig())
	ci := faults.NewCellInjector()
	ci.Script("omnetpp/tmcc/high", faults.CellSpec{Kind: faults.CellTransient, Fail: 1})
	r.SetCellHook(ci.Hook)
	r.SetRetries(2, 300*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()

	_, err := r.WithContext(ctx).Result("omnetpp", system.DesignTMCC, system.SettingHigh)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("cell whose retry outlived the deadline settled %v, want ErrCanceled", err)
	}
	// The error names the transient failure that asked for the retry, but
	// is not itself transient: nothing should retry a canceled cell.
	if !strings.Contains(err.Error(), "injected transient failure") || faults.IsTransient(err) {
		t.Fatalf("canceled retry's error %q should name its transient cause without wrapping it", err)
	}
	// An attempt started after the deadline would reach the hook at once;
	// give it time to.
	time.Sleep(200 * time.Millisecond)
	if got := ci.Attempts("omnetpp/tmcc/high"); got != 1 {
		t.Fatalf("attempts = %d, want 1: a retry started after the deadline", got)
	}
}

// TestTransientRetryWaits: the wait before each retry doubles from the
// backoff up to 10s, and a backoff over 10s still waits in full.
func TestTransientRetryWaits(t *testing.T) {
	for _, c := range []struct {
		backoff time.Duration
		attempt int
		want    time.Duration
	}{
		{100 * time.Millisecond, 1, 100 * time.Millisecond},
		{100 * time.Millisecond, 2, 200 * time.Millisecond},
		{100 * time.Millisecond, 3, 400 * time.Millisecond},
		{100 * time.Millisecond, 20, 10 * time.Second},
		{30 * time.Second, 1, 30 * time.Second},
		{30 * time.Second, 2, 30 * time.Second},
		{0, 3, 0},
	} {
		if got := retryWait(c.backoff, c.attempt); got != c.want {
			t.Errorf("retryWait(%v, %d) = %v, want %v", c.backoff, c.attempt, got, c.want)
		}
	}
}

// TestDeterministicFailureNotRetried: injected panics are not transient and
// must not consume the retry budget; the error carries the recovered stack.
func TestDeterministicFailureNotRetried(t *testing.T) {
	r := NewRunner(microConfig())
	ci := faults.NewCellInjector()
	ci.Script("omnetpp/tmcc/high", faults.CellSpec{Kind: faults.CellPanic, Fail: 10})
	r.SetCellHook(ci.Hook)
	r.SetRetries(3, time.Millisecond)

	_, err := r.Result("omnetpp", system.DesignTMCC, system.SettingHigh)
	if err == nil {
		t.Fatal("panicking cell reported success")
	}
	if got := ci.Attempts("omnetpp/tmcc/high"); got != 1 {
		t.Fatalf("panic was retried: %d attempts", got)
	}
	if !errors.Is(err, ErrCellPanic) {
		t.Fatalf("panic not classified as ErrCellPanic: %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "omnetpp/tmcc/high") {
		t.Fatalf("panic error does not name the cell key: %v", err)
	}
	if !strings.Contains(msg, "goroutine") || !strings.Contains(msg, "faults.(*CellInjector).Hook") {
		t.Fatalf("panic error missing the recovered stack trace: %v", err)
	}
}

// TestGracefulDrainPartialExport: canceling the context stops unstarted
// cells but completed results remain exportable.
func TestGracefulDrainPartialExport(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := NewRunner(microConfig())
	ctx, cancel := context.WithCancel(context.Background())
	r.SetContext(ctx)

	if _, err := r.Result("omnetpp", system.DesignTMCC, system.SettingHigh); err != nil {
		t.Fatalf("pre-cancel cell failed: %v", err)
	}
	cancel()
	_, err := r.Result("omnetpp", system.DesignDyLeCT, system.SettingHigh)
	if err == nil {
		t.Fatal("cell started after cancellation")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("drain error not classified as ErrCanceled: %v", err)
	}

	data, err := r.ExportJSON()
	if err != nil {
		t.Fatalf("partial export failed: %v", err)
	}
	if !strings.Contains(string(data), `"design": "tmcc"`) {
		t.Fatal("partial export lost the completed cell")
	}
	if strings.Contains(string(data), `"design": "dylect"`) {
		t.Fatal("partial export contains the canceled cell")
	}
}

// TestCheckpointResumeByteIdentical is the acceptance test for resumable
// sweeps: a checkpointed run canceled mid-sweep, then resumed into a fresh
// runner, must export byte-identically to an uninterrupted -jobs 8 run —
// and must not re-simulate the cells persisted before the interruption.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	e, ok := ByName("fig19")
	if !ok {
		t.Fatal("fig19 missing")
	}
	cfg := microConfig()
	planned := len(planCells(cfg, []Experiment{e}))
	if planned < 2 {
		t.Fatalf("test needs >=2 cells, planned %d", planned)
	}

	// Reference: uninterrupted, no checkpoint, 8 jobs.
	ref := NewRunner(cfg)
	if _, err := RunExperiments(ref, []Experiment{e}, ExecOptions{Jobs: 8}); err != nil {
		t.Fatal(err)
	}
	want, err := ref.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: checkpointed run, canceled after the first cell settles.
	dir := t.TempDir()
	cp1, err := OpenCheckpoint(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r1 := NewRunner(cfg)
	r1.AttachCheckpoint(cp1)
	r1.SetContext(ctx)
	var once sync.Once
	r1.SetCellTelemetry(func(CellSettlement) {
		once.Do(cancel)
	})
	_, _ = RunExperiments(r1, []Experiment{e}, ExecOptions{Jobs: 1})
	stored := cp1.StoreStats().Puts
	if stored == 0 {
		t.Fatal("nothing checkpointed before the interruption")
	}
	if stored >= planned {
		t.Skipf("interruption raced completion: %d of %d cells stored", stored, planned)
	}

	// Phase 2: fresh process (new runner), same checkpoint dir, full run.
	cp2, err := OpenCheckpoint(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(cfg)
	r2.AttachCheckpoint(cp2)
	src := countSources(r2)
	if _, err := RunExperiments(r2, []Experiment{e}, ExecOptions{Jobs: 8}); err != nil {
		t.Fatal(err)
	}
	got, err := r2.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("resumed export differs from uninterrupted run\n%s", diffHint(string(want), string(got)))
	}
	if loaded := src.n[SourceStore]; loaded != stored {
		t.Errorf("resume loaded %d cells, checkpoint held %d", loaded, stored)
	}
	if r2.Runs() != planned-stored {
		t.Errorf("resume simulated %d cells, want %d (%d checkpointed)",
			r2.Runs(), planned-stored, stored)
	}
}

// TestCheckpointRejectsMismatchedConfig: resuming a checkpoint under a
// different harness config must fail loudly, not mix incompatible results.
func TestCheckpointRejectsMismatchedConfig(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenCheckpoint(dir, microConfig()); err != nil {
		t.Fatal(err)
	}
	other := microConfig()
	other.Seed = 99
	if _, err := OpenCheckpoint(dir, other); err == nil {
		t.Fatal("mismatched config accepted")
	} else if !strings.Contains(err.Error(), "different config") {
		t.Fatalf("unexpected error: %v", err)
	}
}
