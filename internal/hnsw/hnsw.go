// Package hnsw implements a Hierarchical Navigable Small World graph for
// approximate nearest-neighbour search over embedding vectors, following
// Malkov & Yashunin (2016). The curation pipeline (§3.1 of the paper) uses
// it to group near-duplicate prompts before sampling one representative per
// group.
//
// The index supports cosine and Euclidean distance, heuristic neighbour
// selection (algorithm 4 of the paper), and deterministic level assignment
// from a seeded source so that builds are reproducible.
package hnsw

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/embed"
)

// Metric selects the distance function of an index.
type Metric int

const (
	// Cosine distance: 1 - cosine similarity. The default for embeddings.
	Cosine Metric = iota
	// Euclidean (L2) distance.
	Euclidean
)

func (m Metric) String() string {
	switch m {
	case Cosine:
		return "cosine"
	case Euclidean:
		return "euclidean"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Config holds the HNSW build parameters.
type Config struct {
	// M is the maximum number of neighbours per node on layers > 0.
	// Layer 0 allows 2*M. Typical: 8-48.
	M int
	// EfConstruction is the candidate-list width during insertion.
	EfConstruction int
	// EfSearch is the default candidate-list width during Search; it can
	// be overridden per query with searchEf.
	EfSearch int
	// Metric selects the distance function.
	Metric Metric
	// Seed drives level assignment.
	Seed int64
	// Heuristic enables the neighbour-selection heuristic (keeping
	// spatially diverse neighbours) instead of plain closest-first.
	Heuristic bool
}

// DefaultConfig returns build parameters that behave well for the
// 256-dimensional prompt embeddings used by the curation pipeline.
func DefaultConfig() Config {
	return Config{M: 16, EfConstruction: 200, EfSearch: 64, Metric: Cosine, Seed: 1, Heuristic: true}
}

// Result is one search hit.
type Result struct {
	// ID is the caller-supplied identifier of the stored vector.
	ID int
	// Distance is the metric distance to the query (smaller is closer).
	Distance float64
}

// point is a vector with its Euclidean norm, taken once — at Add for a
// stored vector, per search for a query — because the cosine metric
// divides by both norms on every one of a search's comparisons.
type point struct {
	vec  embed.Vector
	norm float64
}

func newPoint(vec embed.Vector) point { return point{vec: vec, norm: vec.Norm()} }

type node struct {
	id int
	point
	friends [][]int32 // friends[l] = neighbour slots at layer l
}

// Index is an HNSW graph. It is safe for concurrent Search; Add must not
// run concurrently with other Adds or Searches.
type Index struct {
	cfg    Config
	mu     sync.RWMutex
	nodes  []*node
	byID   map[int]int32 // external id -> slot
	entry  int32         // slot of entry point, -1 if empty
	maxLvl int
	rng    *rand.Rand
	mult   float64 // level multiplier 1/ln(M)
	dim    int
}

// New creates an empty index.
// It returns an error when the configuration is invalid.
func New(cfg Config) (*Index, error) {
	if cfg.M < 2 {
		return nil, fmt.Errorf("hnsw: M must be >= 2, got %d", cfg.M)
	}
	if cfg.EfConstruction < 1 || cfg.EfSearch < 1 {
		return nil, fmt.Errorf("hnsw: ef parameters must be >= 1 (construction %d, search %d)",
			cfg.EfConstruction, cfg.EfSearch)
	}
	return &Index{
		cfg:   cfg,
		byID:  make(map[int]int32),
		entry: -1,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		mult:  1 / math.Log(float64(cfg.M)),
	}, nil
}

// Len returns the number of stored vectors.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.nodes)
}

func (ix *Index) dist(a, b point) float64 {
	switch ix.cfg.Metric {
	case Euclidean:
		var s float64
		for i := range a.vec {
			d := float64(a.vec[i]) - float64(b.vec[i])
			s += d * d
		}
		return math.Sqrt(s)
	default:
		// 1 - a.vec.Cosine(b.vec), with the norms Cosine would recompute.
		if a.norm == 0 || b.norm == 0 {
			return 1
		}
		return 1 - a.vec.Dot(b.vec)/(a.norm*b.norm)
	}
}

// Add inserts a vector under the given external id.
// It returns an error if the id already exists or the dimension is
// inconsistent with previously added vectors.
func (ix *Index) Add(id int, vec embed.Vector) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, dup := ix.byID[id]; dup {
		return fmt.Errorf("hnsw: duplicate id %d", id)
	}
	if len(vec) == 0 {
		return fmt.Errorf("hnsw: empty vector for id %d", id)
	}
	if ix.dim == 0 {
		ix.dim = len(vec)
	} else if len(vec) != ix.dim {
		return fmt.Errorf("hnsw: vector for id %d has dim %d, index dim %d", id, len(vec), ix.dim)
	}

	level := ix.randomLevel()
	q := newPoint(vec)
	n := &node{id: id, point: q, friends: make([][]int32, level+1)}
	slot := int32(len(ix.nodes))
	ix.nodes = append(ix.nodes, n)
	ix.byID[id] = slot

	if ix.entry < 0 {
		ix.entry = slot
		ix.maxLvl = level
		return nil
	}

	cur := ix.entry
	curDist := ix.dist(q, ix.nodes[cur].point)
	// Greedy descent through layers above the node's level.
	for l := ix.maxLvl; l > level; l-- {
		cur, curDist = ix.greedyStep(q, cur, curDist, l)
	}
	// Insert into each layer from min(level, maxLvl) down to 0.
	top := level
	if ix.maxLvl < top {
		top = ix.maxLvl
	}
	ep := []candidate{{slot: cur, dist: curDist}}
	for l := top; l >= 0; l-- {
		w := ix.searchLayer(q, ep, ix.cfg.EfConstruction, l)
		neighbors := ix.selectNeighbors(w, ix.cfg.M)
		n.friends[l] = make([]int32, 0, len(neighbors))
		for _, c := range neighbors {
			n.friends[l] = append(n.friends[l], c.slot)
			ix.link(c.slot, slot, l)
		}
		ep = w
	}
	if level > ix.maxLvl {
		ix.maxLvl = level
		ix.entry = slot
	}
	return nil
}

// link adds "to" to from's neighbour list at layer l, pruning to capacity
// with the configured selection strategy.
func (ix *Index) link(from, to int32, l int) {
	fn := ix.nodes[from]
	if l >= len(fn.friends) {
		return
	}
	fn.friends[l] = append(fn.friends[l], to)
	maxConn := ix.cfg.M
	if l == 0 {
		maxConn = 2 * ix.cfg.M
	}
	if len(fn.friends[l]) <= maxConn {
		return
	}
	cands := make([]candidate, 0, len(fn.friends[l]))
	for _, s := range fn.friends[l] {
		cands = append(cands, candidate{slot: s, dist: ix.dist(fn.point, ix.nodes[s].point)})
	}
	kept := ix.selectNeighbors(cands, maxConn)
	fn.friends[l] = fn.friends[l][:0]
	for _, c := range kept {
		fn.friends[l] = append(fn.friends[l], c.slot)
	}
}

func (ix *Index) greedyStep(q point, start int32, startDist float64, l int) (int32, float64) {
	cur, curDist := start, startDist
	for {
		improved := false
		for _, nb := range ix.nodes[cur].friends[l] {
			if d := ix.dist(q, ix.nodes[nb].point); d < curDist {
				cur, curDist = nb, d
				improved = true
			}
		}
		if !improved {
			return cur, curDist
		}
	}
}

type candidate struct {
	slot int32
	dist float64
}

// minHeap orders candidates nearest-first.
type minHeap []candidate

func (h minHeap) Len() int            { return len(h) }
func (h minHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h minHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x interface{}) { *h = append(*h, x.(candidate)) }
func (h *minHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// maxHeap orders candidates farthest-first (used as the bounded result set).
type maxHeap []candidate

func (h maxHeap) Len() int            { return len(h) }
func (h maxHeap) Less(i, j int) bool  { return h[i].dist > h[j].dist }
func (h maxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x interface{}) { *h = append(*h, x.(candidate)) }
func (h *maxHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// searchLayer is algorithm 2: best-first expansion bounded by ef.
func (ix *Index) searchLayer(q point, entry []candidate, ef, l int) []candidate {
	visited := make(map[int32]bool, ef*4)
	var cand minHeap
	var result maxHeap
	for _, e := range entry {
		if visited[e.slot] {
			continue
		}
		visited[e.slot] = true
		heap.Push(&cand, e)
		heap.Push(&result, e)
	}
	for cand.Len() > 0 {
		c := heap.Pop(&cand).(candidate)
		if result.Len() >= ef && c.dist > result[0].dist {
			break
		}
		for _, nb := range ix.nodes[c.slot].friends[l] {
			if visited[nb] {
				continue
			}
			visited[nb] = true
			d := ix.dist(q, ix.nodes[nb].point)
			if result.Len() < ef || d < result[0].dist {
				heap.Push(&cand, candidate{slot: nb, dist: d})
				heap.Push(&result, candidate{slot: nb, dist: d})
				if result.Len() > ef {
					heap.Pop(&result)
				}
			}
		}
	}
	out := make([]candidate, result.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&result).(candidate)
	}
	return out
}

// selectNeighbors keeps up to m candidates. With Heuristic enabled it
// follows algorithm 4: a candidate is kept only if it is closer to the
// query than to every already-kept neighbour, which preserves graph
// navigability in clustered data.
func (ix *Index) selectNeighbors(cands []candidate, m int) []candidate {
	sorted := make([]candidate, len(cands))
	copy(sorted, cands)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].dist < sorted[j].dist })
	if !ix.cfg.Heuristic {
		if len(sorted) > m {
			sorted = sorted[:m]
		}
		return sorted
	}
	kept := make([]candidate, 0, m)
	var spares []candidate
	for _, c := range sorted {
		if len(kept) >= m {
			break
		}
		good := true
		for _, k := range kept {
			if ix.dist(ix.nodes[c.slot].point, ix.nodes[k.slot].point) < c.dist {
				good = false
				break
			}
		}
		if good {
			kept = append(kept, c)
		} else {
			spares = append(spares, c)
		}
	}
	// Backfill with pruned candidates to keep connectivity.
	for _, c := range spares {
		if len(kept) >= m {
			break
		}
		kept = append(kept, c)
	}
	return kept
}

func (ix *Index) randomLevel() int {
	return int(-math.Log(1-ix.rng.Float64()) * ix.mult)
}

// Search returns the k nearest stored vectors to q using the default
// EfSearch width.
func (ix *Index) Search(q embed.Vector, k int) []Result {
	return ix.searchEf(q, k, ix.cfg.EfSearch)
}

// searchEf is Search with an explicit ef width (clamped up to k).
func (ix *Index) searchEf(q embed.Vector, k, ef int) []Result {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.entry < 0 || k <= 0 {
		return nil
	}
	if ef < k {
		ef = k
	}
	qp := newPoint(q)
	cur := ix.entry
	curDist := ix.dist(qp, ix.nodes[cur].point)
	for l := ix.maxLvl; l > 0; l-- {
		cur, curDist = ix.greedyStep(qp, cur, curDist, l)
	}
	w := ix.searchLayer(qp, []candidate{{slot: cur, dist: curDist}}, ef, 0)
	if len(w) > k {
		w = w[:k]
	}
	out := make([]Result, len(w))
	for i, c := range w {
		out[i] = Result{ID: ix.nodes[c.slot].id, Distance: c.dist}
	}
	return out
}
