package fabric

import (
	"context"
	"testing"
)

// TestWorkerDrainIdleIsClean: with no dispatch in flight, a worker drain
// under an already canceled context reports clean every time; with a
// dispatch held in flight it reports unclean.
func TestWorkerDrainIdleIsClean(t *testing.T) {
	w := NewWorker(WorkerOptions{})
	expired, expire := context.WithCancel(context.Background())
	expire()
	for i := 0; i < 1000; i++ {
		if !w.Drain(expired) {
			t.Fatalf("iteration %d: idle worker drained unclean", i)
		}
	}
	w.inflight.Add()
	defer w.inflight.Done()
	if w.Drain(expired) {
		t.Fatal("drain with a dispatch in flight past its grace reported clean")
	}
}
