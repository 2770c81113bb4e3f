package fabric

import (
	"fmt"
	"slices"
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

// replicas is key's failover order over c's ledger, as Execute places it.
func replicas(c *Coordinator, key string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replicasLocked(key)
}

// owner is the member key is placed on first, or "" on an empty ring.
func owner(c *Coordinator, key string) string {
	if reps := replicas(c, key); len(reps) > 0 {
		return reps[0]
	}
	return ""
}

// TestRingDeterministicPlacement proves placement is a pure function of the
// member set: two ledgers built in different insertion orders agree on every
// owner and every failover list.
func TestRingDeterministicPlacement(t *testing.T) {
	workers := workerURLs(7)
	a := New(Config{Workers: workers})
	b := New(Config{})
	for i := len(workers) - 1; i >= 0; i-- {
		b.admit(workers[i])
	}
	for _, k := range ringKeys(500) {
		if ao, bo := owner(a, k), owner(b, k); ao != bo {
			t.Fatalf("owner(%s): %s vs %s across insertion orders", k, ao, bo)
		}
		ar, br := replicas(a, k), replicas(b, k)
		if len(ar) != len(workers) || len(br) != len(workers) {
			t.Fatalf("replicas(%s): want %d, got %d and %d", k, len(workers), len(ar), len(br))
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
		c := New(Config{Workers: workerURLs(n)})
		load := make(map[string]int, n)
		for _, k := range keys {
			o := owner(c, k)
			if o == "" {
				t.Fatalf("n=%d: no owner for %s", n, k)
			}
			load[o]++
		}
		if len(load) != n {
			t.Fatalf("n=%d: only %d workers received keys", n, len(load))
		}
		fair := float64(len(keys)) / float64(n)
		for w, cnt := range load {
			if got := float64(cnt); got > 2*fair || got < fair/2 {
				t.Errorf("n=%d: worker %s owns %d keys (fair %.0f); skew exceeds [0.5, 2]x",
					n, w, cnt, fair)
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
	workers := workerURLs(n + 1)
	c := New(Config{Workers: workers[:n]})
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = owner(c, k)
	}

	newcomer := workers[n]
	c.admit(newcomer)
	moved := 0
	for _, k := range keys {
		if o := owner(c, k); o != before[k] {
			moved++
			if o != newcomer {
				t.Fatalf("join: key %s moved %s -> %s, not to the newcomer", k, before[k], o)
			}
		}
	}
	// Fair share is K/(N+1); hashing wobbles around it, so allow 2x before
	// calling the movement non-minimal (naive mod-N hashing would move
	// ~N/(N+1) of the keys, an order of magnitude more).
	if limit := 2 * len(keys) / (n + 1); moved > limit {
		t.Errorf("join moved %d/%d keys; want <= %d", moved, len(keys), limit)
	}
	if moved == 0 {
		t.Error("join moved zero keys; newcomer owns nothing")
	}

	after := make(map[string]string, len(keys))
	for _, k := range keys {
		after[k] = owner(c, k)
	}
	c.Forget(newcomer)
	for _, k := range keys {
		o := owner(c, k)
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

// TestRingReplicas covers the failover list edges: distinct members, all of
// the ring's, none on an empty ring, none dropped from the ring.
func TestRingReplicas(t *testing.T) {
	c := New(Config{})
	if got := replicas(c, "x"); len(got) != 0 {
		t.Fatalf("empty ring: got %v", got)
	}
	if o := owner(c, "x"); o != "" {
		t.Fatalf("empty ring reported owner %s", o)
	}
	for _, w := range workerURLs(3) {
		c.admit(w)
	}
	reps := replicas(c, "omnetpp/tmcc/high")
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
	c.admit(reps[0])
	c.Forget("http://nonexistent:1")
	if c.RingSize() != 3 {
		t.Fatalf("size after idempotent ops: %d", c.RingSize())
	}
	// A dropped member leaves the order and the rest keep theirs.
	c.mu.Lock()
	c.dropLocked(reps[0], "test")
	c.mu.Unlock()
	if got := replicas(c, "omnetpp/tmcc/high"); !slices.Equal(got, reps[1:]) {
		t.Fatalf("after dropping %s: order %v, want %v", reps[0], got, reps[1:])
	}
}
