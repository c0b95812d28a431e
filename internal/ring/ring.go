// Package ring is the cluster routing tier of the PAS serving stack: a
// consistent-hash ring over passerve replicas, a membership table with
// active health checking, and an HTTP augmentation client with
// per-replica circuit breakers and hedged cross-replica reads.
//
// The ring hashes the *same bytes* the replica's serving cache shards
// on — serving.Key(prompt, salt, model) — so every repeated key routes
// to one owner replica and the per-process TTL-LRU caches of N replicas
// compose into a distributed cache with near-perfect hit locality.
// Virtual nodes smooth the key distribution; removing a member moves
// only the keys that member owned (≈1/N of the space), which is the
// whole point of hashing consistently instead of key%N.
package ring

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"repro/internal/textkit"
)

// ringSeed decorrelates the ring's hash space from the other FNV users
// in the repo (cache sharding, embedding); an arbitrary odd constant.
const ringSeed = 0x9a7c5f1d3b2e4a61

// DefaultVNodes is the virtual-node count per member when the caller
// passes 0. 128 vnodes keep the per-member share of a 3-replica ring
// within a few percent of 1/3.
const DefaultVNodes = 128

// hashKey positions a routing key on the ring.
func hashKey(key string) uint64 { return textkit.Hash64Seed(key, ringSeed) }

// hashPoint positions virtual node i of a member on the ring.
func hashPoint(member string, i int) uint64 {
	return textkit.Hash64Seed(member+"\x00"+strconv.Itoa(i), ringSeed)
}

// point is one virtual node: a position on the 64-bit ring and the
// member it belongs to.
type point struct {
	hash   uint64
	member string
}

// Ring is a consistent-hash ring. Membership changes rebuild the sorted
// point slice (members change rarely; lookups are the hot path, served
// lock-shared by binary search). Safe for concurrent use.
type Ring struct {
	vnodes int

	mu      sync.RWMutex
	points  []point
	members map[string]struct{}
}

// New creates an empty ring with the given virtual-node count per
// member (0 selects DefaultVNodes).
func New(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, members: make(map[string]struct{})}
}

// add inserts a member; adding an existing member is a no-op.
func (r *Ring) add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[member]; ok {
		return
	}
	r.members[member] = struct{}{}
	r.rebuild()
}

// remove deletes a member; removing an absent member is a no-op.
func (r *Ring) remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[member]; !ok {
		return
	}
	delete(r.members, member)
	r.rebuild()
}

// SetMembers replaces the whole membership in one rebuild.
func (r *Ring) SetMembers(members []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.members = make(map[string]struct{}, len(members))
	for _, m := range members {
		r.members[m] = struct{}{}
	}
	r.rebuild()
}

// rebuild regenerates the sorted point slice. Caller holds r.mu.
func (r *Ring) rebuild() {
	r.points = r.points[:0]
	for m := range r.members {
		for i := 0; i < r.vnodes; i++ {
			r.points = append(r.points, point{hash: hashPoint(m, i), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A 64-bit collision between vnode labels is vanishingly rare
		// but must still order deterministically across processes.
		return r.points[i].member < r.points[j].member
	})
}

// Size returns the member count.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Owner returns the member owning key: the first virtual node at or
// clockwise after the key's position. ok is false on an empty ring.
func (r *Ring) Owner(key string) (member string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	return r.points[r.at(hashKey(key))].member, true
}

// successors returns up to n distinct members in ring order starting at
// the key's owner — the owner first, then the replicas a hedged or
// failed-over read falls back to. n <= 0 or n > members returns all.
func (r *Ring) successors(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return nil
	}
	if n <= 0 || n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	for i, start := 0, r.at(hashKey(key)); len(out) < n && i < len(r.points); i++ {
		// out holds at most one entry per member: scanning it is cheaper
		// than a set built per call.
		if m := r.points[(start+i)%len(r.points)].member; !slices.Contains(out, m) {
			out = append(out, m)
		}
	}
	return out
}

// at returns the index of the first point at or clockwise after h,
// wrapping past the highest point to the lowest. Caller holds r.mu.
func (r *Ring) at(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// String describes the ring for logs.
func (r *Ring) String() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return fmt.Sprintf("ring(%d members, %d vnodes each)", len(r.members), r.vnodes)
}
