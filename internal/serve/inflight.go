package serve

import (
	"context"
	"sync"
	"sync/atomic"
)

// InFlight counts the requests a process is serving, for its drain. A
// sync.WaitGroup alone cannot say whether anything is in flight right now:
// a drain that raced a goroutine's Wait against an already expired context
// would report an idle process as unclean whenever the expiry won the race.
type InFlight struct {
	wg sync.WaitGroup
	n  atomic.Int64
}

// Add marks one request in flight.
func (f *InFlight) Add() {
	f.n.Add(1)
	f.wg.Add(1)
}

// Done marks one request finished.
func (f *InFlight) Done() {
	f.n.Add(-1)
	f.wg.Done()
}

// Drain waits until nothing is in flight or ctx is done, and reports
// whether nothing was left in flight. It decides from the in-flight count
// first, so an idle process drains clean under any context; when ctx is
// done and the last request has also finished, the finished side wins.
func (f *InFlight) Drain(ctx context.Context) bool {
	if f.n.Load() == 0 {
		return true
	}
	done := make(chan struct{})
	go func() {
		f.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-ctx.Done():
		return f.n.Load() == 0
	}
}

// Wait blocks until nothing is in flight.
func (f *InFlight) Wait() { f.wg.Wait() }
