package serve

import (
	"context"
	"testing"
)

// TestDrainIdleServerIsClean: with nothing in flight, a drain under an
// already canceled context reports clean every time; with a request held in
// flight it reports unclean.
func TestDrainIdleServerIsClean(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, _ := newTestServer(t, ctx, nil)
	expired, expire := context.WithCancel(context.Background())
	expire()
	for i := 0; i < 1000; i++ {
		if !s.Drain(expired) {
			t.Fatalf("iteration %d: idle server drained unclean", i)
		}
	}
	s.inflight.Add()
	drained := make(chan bool, 1)
	go func() { drained <- s.Drain(expired) }()
	// The drain decides unclean, abandons the held request's waits, and
	// returns once the request does.
	<-s.force.Done()
	s.inflight.Done()
	if <-drained {
		t.Fatal("drain with a request in flight past its grace reported clean")
	}
}
