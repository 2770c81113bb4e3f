package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Spans of one op share Op; Parent names the span that caused it
// (0 for an op's root). Server-side phases parsed from Server-Timing carry
// their duration only, so their Start is the client's send time.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, so untraced runs pass nil and pay one nil check per call.
type spanLog struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	next  int64
}

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// add records a completed span of op and returns its ID (0 when l is nil).
// An op's root span (parent 0) takes the op's own ID; a child gets a fresh
// one.
func (l *spanLog) add(op, parent int64, name string, start time.Time, d time.Duration) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := op
	if parent != 0 {
		l.next++
		id = l.next
	}
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		StartNS: start.Sub(l.t0).Nanoseconds(), DurNS: d.Nanoseconds(),
	})
	return id
}

// newOp reserves an op identifier.
func (l *spanLog) newOp() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

// durations returns the durations in milliseconds of every span named name.
func (l *spanLog) durations(name string) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.DurNS)/1e6)
		}
	}
	return out
}

// write stores the spans as JSON lines under dir and returns the file path.
func (l *spanLog) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(&s); err != nil {
			l.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close spans: %w", err)
	}
	return path, nil
}
