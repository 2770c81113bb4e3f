package fabric

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		// Shaped like real cell keys so the skew bound is measured on the
		// distribution the fabric actually hashes.
		keys[i] = fmt.Sprintf("omnetpp/tmcc/high/hp=false/g=%d", i)
	}
	return keys
}

func workerURLs(n int) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://10.0.0.%d:8344", i+1)
	}
	return urls
}

// TestRingDeterministicPlacement proves placement is a pure function of the
// member set: two rings built in different insertion orders agree on every
// owner and every failover list.
func TestRingDeterministicPlacement(t *testing.T) {
	workers := workerURLs(7)
	a := NewRing()
	for _, w := range workers {
		a.Add(w)
	}
	b := NewRing()
	for i := len(workers) - 1; i >= 0; i-- {
		b.Add(workers[i])
	}
	for _, k := range ringKeys(500) {
		ao, _ := a.Owner(k)
		bo, _ := b.Owner(k)
		if ao != bo {
			t.Fatalf("owner(%s): %s vs %s across insertion orders", k, ao, bo)
		}
		ar, br := a.Replicas(k, 3), b.Replicas(k, 3)
		if len(ar) != 3 || len(br) != 3 {
			t.Fatalf("replicas(%s): want 3, got %d and %d", k, len(ar), len(br))
		}
		for i := range ar {
			if ar[i] != br[i] {
				t.Fatalf("replica order differs at %s[%d]: %s vs %s", k, i, ar[i], br[i])
			}
		}
	}
}

// TestRingDistributionSkew bounds load skew for every cluster size the
// fabric targets (1-16 workers): no worker owns more than twice or less
// than half its fair share of a realistic key population.
func TestRingDistributionSkew(t *testing.T) {
	keys := ringKeys(4000)
	for n := 1; n <= 16; n++ {
		r := NewRing()
		workers := workerURLs(n)
		for _, w := range workers {
			r.Add(w)
		}
		load := make(map[string]int, n)
		for _, k := range keys {
			o, ok := r.Owner(k)
			if !ok {
				t.Fatalf("n=%d: no owner for %s", n, k)
			}
			load[o]++
		}
		if len(load) != n {
			t.Fatalf("n=%d: only %d workers received keys", n, len(load))
		}
		fair := float64(len(keys)) / float64(n)
		for w, c := range load {
			if got := float64(c); got > 2*fair || got < fair/2 {
				t.Errorf("n=%d: worker %s owns %d keys (fair %.0f); skew exceeds [0.5, 2]x",
					n, w, c, fair)
			}
		}
	}
}

// TestRingMinimalMovement proves membership change is incremental: adding a
// worker moves only about 1/(N+1) of the keys (all toward the newcomer), and
// removing one moves only the keys it owned (all away from it).
func TestRingMinimalMovement(t *testing.T) {
	keys := ringKeys(4000)
	const n = 8
	r := NewRing()
	workers := workerURLs(n + 1)
	for _, w := range workers[:n] {
		r.Add(w)
	}
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k], _ = r.Owner(k)
	}

	newcomer := workers[n]
	r.Add(newcomer)
	moved := 0
	for _, k := range keys {
		o, _ := r.Owner(k)
		if o != before[k] {
			moved++
			if o != newcomer {
				t.Fatalf("join: key %s moved %s -> %s, not to the newcomer", k, before[k], o)
			}
		}
	}
	// Fair share is K/(N+1); virtual-node granularity wobbles around it, so
	// allow 2x before calling the movement non-minimal (naive mod-N hashing
	// would move ~N/(N+1) of the keys, an order of magnitude more).
	if limit := 2 * len(keys) / (n + 1); moved > limit {
		t.Errorf("join moved %d/%d keys; want <= %d", moved, len(keys), limit)
	}
	if moved == 0 {
		t.Error("join moved zero keys; newcomer owns nothing")
	}

	after := make(map[string]string, len(keys))
	for _, k := range keys {
		after[k], _ = r.Owner(k)
	}
	r.Remove(newcomer)
	for _, k := range keys {
		o, _ := r.Owner(k)
		if after[k] == newcomer {
			if o == newcomer {
				t.Fatalf("leave: key %s still owned by removed worker", k)
			}
			if o != before[k] {
				t.Fatalf("leave: key %s moved to %s, not back to %s", k, o, before[k])
			}
		} else if o != after[k] {
			t.Fatalf("leave: key %s moved %s -> %s though its owner stayed", k, after[k], o)
		}
	}
}

// TestRingReplicas covers the failover list edges: distinct members, bounded
// by membership, empty on an empty ring.
func TestRingReplicas(t *testing.T) {
	r := NewRing()
	if got := r.Replicas("x", 3); got != nil {
		t.Fatalf("empty ring: got %v", got)
	}
	if _, ok := r.Owner("x"); ok {
		t.Fatal("empty ring reported an owner")
	}
	for _, w := range workerURLs(3) {
		r.Add(w)
	}
	reps := r.Replicas("omnetpp/tmcc/high", 10)
	if len(reps) != 3 {
		t.Fatalf("want all 3 members, got %v", reps)
	}
	seen := map[string]bool{}
	for _, m := range reps {
		if seen[m] {
			t.Fatalf("duplicate member %s in %v", m, reps)
		}
		seen[m] = true
	}
	// Idempotent membership ops.
	r.Add(reps[0])
	r.Remove("http://nonexistent:1")
	if r.Size() != 3 {
		t.Fatalf("size after idempotent ops: %d", r.Size())
	}
}
