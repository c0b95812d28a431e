package ring

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/serving"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		// Shaped like real shard keys: the serving cache key of a
		// distinct prompt.
		out[i] = serving.Key(fmt.Sprintf("prompt %d: explain consistent hashing", i), "", "m")
	}
	return out
}

// TestOwnerDeterministic: two rings built from the same membership give
// every key the same owner — routing must agree across proxy restarts
// and across processes.
func TestOwnerDeterministic(t *testing.T) {
	members := []string{"http://a:1", "http://b:1", "http://c:1"}
	r1, r2 := New(0), New(0)
	r1.SetMembers(members)
	// Build r2 incrementally in a different order; the ring is a pure
	// function of the member set.
	r2.add("http://c:1")
	r2.add("http://a:1")
	r2.add("http://b:1")
	for _, k := range keys(1000) {
		o1, ok1 := r1.Owner(k)
		o2, ok2 := r2.Owner(k)
		if !ok1 || !ok2 || o1 != o2 {
			t.Fatalf("owner mismatch for %q: %q vs %q", k, o1, o2)
		}
	}
}

// TestDistributionBalance: with the default vnode count, no member of a
// 3-replica ring owns a grossly skewed share of the key space.
func TestDistributionBalance(t *testing.T) {
	r := New(0)
	r.SetMembers([]string{"http://a:1", "http://b:1", "http://c:1"})
	counts := map[string]int{}
	ks := keys(9000)
	for _, k := range ks {
		o, ok := r.Owner(k)
		if !ok {
			t.Fatal("empty ring")
		}
		counts[o]++
	}
	for m, n := range counts {
		share := float64(n) / float64(len(ks))
		if share < 0.20 || share > 0.47 {
			t.Fatalf("member %s owns %.1f%% of keys; want a rough third", m, 100*share)
		}
	}
}

// TestRebalanceMovesOnlyOwnedKeys is the consistent-hashing contract
// the whole tier is built on: killing one of three replicas moves
// exactly the keys that replica owned — measured ≈1/3 of the space —
// and not a single key whose owner survived.
func TestRebalanceMovesOnlyOwnedKeys(t *testing.T) {
	members := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := New(0)
	r.SetMembers(members)
	ks := keys(9000)
	before := make(map[string]string, len(ks))
	for _, k := range ks {
		before[k], _ = r.Owner(k)
	}

	const killed = "http://b:1"
	r.remove(killed)

	moved := 0
	for _, k := range ks {
		after, ok := r.Owner(k)
		if !ok {
			t.Fatal("ring emptied")
		}
		if after == killed {
			t.Fatalf("key still routed to removed member")
		}
		if before[k] == killed {
			moved++
			continue
		}
		if after != before[k] {
			t.Fatalf("key owned by surviving member %s moved to %s — consistent hashing violated", before[k], after)
		}
	}
	frac := float64(moved) / float64(len(ks))
	if frac < 0.20 || frac > 0.47 {
		t.Fatalf("killing 1 of 3 replicas moved %.1f%% of keys; want ≈33%%", 100*frac)
	}

	// Re-adding the member restores every original assignment.
	r.add(killed)
	for _, k := range ks {
		if after, _ := r.Owner(k); after != before[k] {
			t.Fatalf("re-added member did not restore ownership of %q", k)
		}
	}
}

// TestSuccessorsOwnerFirstDistinct: the candidate list starts at the
// owner and never repeats a member.
func TestSuccessorsOwnerFirstDistinct(t *testing.T) {
	r := New(0)
	members := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	r.SetMembers(members)
	for _, k := range keys(200) {
		owner, _ := r.Owner(k)
		succ := r.successors(k, 0)
		if len(succ) != len(members) {
			t.Fatalf("Successors returned %d members, want %d", len(succ), len(members))
		}
		if succ[0] != owner {
			t.Fatalf("Successors[0] = %s, owner = %s", succ[0], owner)
		}
		seen := map[string]bool{}
		for _, m := range succ {
			if seen[m] {
				t.Fatalf("duplicate member %s in successors", m)
			}
			seen[m] = true
		}
	}
	if got := r.successors(keys(1)[0], 2); len(got) != 2 {
		t.Fatalf("Successors(n=2) returned %d members", len(got))
	}
}

// TestEmptyRing: lookups on an empty ring fail soft.
func TestEmptyRing(t *testing.T) {
	r := New(0)
	if _, ok := r.Owner("k"); ok {
		t.Fatal("Owner on empty ring reported ok")
	}
	if s := r.successors("k", 3); len(s) != 0 {
		t.Fatalf("Successors on empty ring returned %v", s)
	}
}

// Members returns the current membership, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}
