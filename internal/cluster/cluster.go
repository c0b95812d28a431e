// Package cluster provides the grouping algorithms used by the curation
// pipeline (§3.1): HNSW-driven near-duplicate grouping, spherical k-means,
// and k-center greedy diversity selection. All algorithms are deterministic
// given their seeds.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/embed"
	"repro/internal/hnsw"
)

// Group is a set of item indices considered near-duplicates of each other.
type Group struct {
	// Members holds indices into the input slice, sorted ascending.
	Members []int
	// Representative is the index chosen to stand for the whole group
	// (the member with the highest average similarity to the others).
	Representative int
}

// DedupConfig controls near-duplicate grouping.
type DedupConfig struct {
	// Threshold is the cosine similarity above which two items are
	// considered duplicates. The paper's dedup stage groups paraphrases;
	// 0.92 keeps template siblings distinct while still merging paraphrases.
	Threshold float64
	// K is the number of neighbours examined per item.
	K int
	// Index configures the underlying HNSW build.
	Index hnsw.Config
}

// DefaultDedupConfig returns the thresholds used by the PAS pipeline.
func DefaultDedupConfig() DedupConfig {
	return DedupConfig{Threshold: 0.92, K: 12, Index: hnsw.DefaultConfig()}
}

// NearDuplicates groups vectors whose cosine similarity exceeds the
// configured threshold, using an HNSW index to avoid the quadratic scan.
// Grouping is transitive (union-find over above-threshold edges), matching
// the paper's "cluster then sample per cluster" dedup.
func NearDuplicates(vecs []embed.Vector, cfg DedupConfig) ([]Group, error) {
	if cfg.Threshold <= 0 || cfg.Threshold >= 1 {
		return nil, fmt.Errorf("cluster: threshold must be in (0,1), got %v", cfg.Threshold)
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("cluster: K must be >= 1, got %d", cfg.K)
	}
	ix, err := hnsw.New(cfg.Index)
	if err != nil {
		return nil, err
	}
	for i, v := range vecs {
		if err := ix.Add(i, v); err != nil {
			return nil, fmt.Errorf("cluster: indexing item %d: %w", i, err)
		}
	}
	uf := newUnionFind(len(vecs))
	maxDist := 1 - cfg.Threshold
	for i, v := range vecs {
		for _, r := range ix.Search(v, cfg.K+1) {
			if r.ID != i && r.Distance <= maxDist {
				uf.union(i, r.ID)
			}
		}
	}
	return groupsFromUF(uf, vecs), nil
}

// NearDuplicatesExact is the brute-force counterpart of NearDuplicates,
// used as the oracle in tests and in the HNSW-vs-exact ablation bench.
func NearDuplicatesExact(vecs []embed.Vector, threshold float64) ([]Group, error) {
	if threshold <= 0 || threshold >= 1 {
		return nil, fmt.Errorf("cluster: threshold must be in (0,1), got %v", threshold)
	}
	uf := newUnionFind(len(vecs))
	for i := 0; i < len(vecs); i++ {
		for j := i + 1; j < len(vecs); j++ {
			if vecs[i].Cosine(vecs[j]) >= threshold {
				uf.union(i, j)
			}
		}
	}
	return groupsFromUF(uf, vecs), nil
}

func groupsFromUF(uf *unionFind, vecs []embed.Vector) []Group {
	byRoot := make(map[int][]int)
	for i := range vecs {
		r := uf.find(i)
		byRoot[r] = append(byRoot[r], i)
	}
	roots := make([]int, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	groups := make([]Group, 0, len(roots))
	for _, r := range roots {
		members := byRoot[r]
		sort.Ints(members)
		groups = append(groups, Group{Members: members, Representative: centroidMember(members, vecs)})
	}
	return groups
}

// centroidMember picks the member most similar on average to the rest.
// Singleton groups return their only member.
func centroidMember(members []int, vecs []embed.Vector) int {
	if len(members) == 1 {
		return members[0]
	}
	best, bestScore := members[0], math.Inf(-1)
	for _, i := range members {
		var s float64
		for _, j := range members {
			if i != j {
				s += vecs[i].Cosine(vecs[j])
			}
		}
		if s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// unionFind is a path-compressed, union-by-size disjoint set.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
}

// KMeans runs spherical k-means (cosine assignment, mean centroids
// re-normalised each round) with k-means++ style seeding from the given
// seed. It returns the assignment of each vector to a centroid index.
func KMeans(vecs []embed.Vector, k int, iters int, seed int64) ([]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("cluster: k must be >= 1, got %d", k)
	}
	if len(vecs) == 0 {
		return nil, fmt.Errorf("cluster: no vectors")
	}
	if k > len(vecs) {
		k = len(vecs)
	}
	dim := len(vecs[0])
	rng := rand.New(rand.NewSource(seed))

	// k-means++ seeding with cosine distance.
	centroids := make([]embed.Vector, 0, k)
	centroids = append(centroids, cloneVec(vecs[rng.Intn(len(vecs))]))
	dist := make([]float64, len(vecs))
	for len(centroids) < k {
		var total float64
		for i, v := range vecs {
			d := math.Inf(1)
			for _, c := range centroids {
				if cd := 1 - v.Cosine(c); cd < d {
					d = cd
				}
			}
			dist[i] = d * d
			total += dist[i]
		}
		pick := 0
		if total > 0 {
			r := rng.Float64() * total
			for i, d := range dist {
				r -= d
				if r <= 0 {
					pick = i
					break
				}
			}
		} else {
			pick = rng.Intn(len(vecs))
		}
		centroids = append(centroids, cloneVec(vecs[pick]))
	}

	assign := make([]int, len(vecs))
	for it := 0; it < iters; it++ {
		changed := false
		for i, v := range vecs {
			best, bestSim := 0, math.Inf(-1)
			for ci, c := range centroids {
				if s := v.Cosine(c); s > bestSim {
					best, bestSim = ci, s
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && it > 0 {
			break
		}
		sums := make([]embed.Vector, k)
		counts := make([]int, k)
		for ci := range sums {
			sums[ci] = make(embed.Vector, dim)
		}
		for i, v := range vecs {
			c := assign[i]
			counts[c]++
			for j := range v {
				sums[c][j] += v[j]
			}
		}
		for ci := range centroids {
			if counts[ci] == 0 {
				continue // keep previous centroid for empty clusters
			}
			var n float64
			for j := range sums[ci] {
				n += float64(sums[ci][j]) * float64(sums[ci][j])
			}
			n = math.Sqrt(n)
			if n == 0 {
				continue
			}
			for j := range sums[ci] {
				sums[ci][j] = float32(float64(sums[ci][j]) / n)
			}
			centroids[ci] = sums[ci]
		}
	}
	return assign, nil
}

func cloneVec(v embed.Vector) embed.Vector {
	out := make(embed.Vector, len(v))
	copy(out, v)
	return out
}
