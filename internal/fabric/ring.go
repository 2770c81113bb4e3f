// Package fabric is the distributed sweep layer: a coordinator that plans a
// request into cells (via the harness), shards them over a consistent-hash
// ring of workers, dispatches each cell over HTTP/JSON, and merges results
// through the unchanged local export path so distribution can never change
// an exported byte. The correctness oracle is byte-identity: every payload a
// worker returns is wrapped in the cellstore envelope and re-verified
// (schema pin, sha256, exact key) before it is trusted, and a verified
// payload is byte-for-byte what a local run would have persisted.
//
// Robustness model: workers are monitored by heartbeat with
// consecutive-failure scoring; a dead worker's in-flight cells are orphaned
// (their leases canceled) and re-dispatched to the next ring replica, which
// is idempotent because cells are content-addressed. Straggler cells are
// hedged to the next replica after a p95-derived delay, first result wins.
// Dispatch failures retry with jittered backoff honoring Retry-After. All of
// it is observable through dedicated /metrics families.
package fabric

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// virtualNodes is the per-member virtual-node count. 128 points per member
// keeps worst-case load skew within ~±20% of fair share for the member
// counts a sweep cluster sees (1–16) while keeping ring rebuilds trivially
// cheap.
const virtualNodes = 128

// Ring is a consistent-hash ring with virtual nodes. Placement is a pure
// function of the member set and the key — two coordinators with the same
// members agree on every placement — and membership change moves only the
// keys adjacent to the changed member's points (~1/N of the keyspace).
type Ring struct {
	mu      sync.RWMutex
	points  []ringPoint // sorted by hash
	members map[string]bool
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing builds an empty ring.
func NewRing() *Ring {
	return &Ring{members: make(map[string]bool)}
}

// ringHash is the ring's point/key hash: the first 8 bytes of a SHA-256.
// Cryptographic dispersion matters here — the skew bound the tests enforce
// assumes the points are uniform.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a member (idempotent).
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[member] {
		return
	}
	r.members[member] = true
	for i := 0; i < virtualNodes; i++ {
		h := ringHash(fmt.Sprintf("%s#%d", member, i))
		r.points = append(r.points, ringPoint{hash: h, member: member})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
}

// Remove deletes a member (idempotent).
func (r *Ring) Remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Size returns the member count.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Owner returns the member owning key (the first point clockwise from the
// key's hash), or false on an empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	reps := r.Replicas(key, 1)
	if len(reps) == 0 {
		return "", false
	}
	return reps[0], true
}

// Replicas returns up to n distinct members in ring order starting at key's
// owner: the owner first, then the members next clockwise. Re-dispatch and
// hedging walk this list, so a cell's failover order is as deterministic as
// its placement.
func (r *Ring) Replicas(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	return out
}
