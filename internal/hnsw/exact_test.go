package hnsw

import (
	"fmt"
	"sort"

	"repro/internal/embed"
)

// Exact is a brute-force nearest-neighbour index with the same interface
// shape as Index: the recall oracle of the tests.
type Exact struct {
	metric Metric
	ids    []int
	vecs   []embed.Vector
	seen   map[int]bool
	dim    int
}

// NewExact creates an empty exact index using the given metric.
func NewExact(metric Metric) *Exact {
	return &Exact{metric: metric, seen: make(map[int]bool)}
}

// Add stores a vector. It returns an error on duplicate ids or dimension
// mismatch, mirroring Index.Add.
func (e *Exact) Add(id int, vec embed.Vector) error {
	if e.seen[id] {
		return fmt.Errorf("hnsw: duplicate id %d", id)
	}
	if len(vec) == 0 {
		return fmt.Errorf("hnsw: empty vector for id %d", id)
	}
	if e.dim == 0 {
		e.dim = len(vec)
	} else if len(vec) != e.dim {
		return fmt.Errorf("hnsw: vector for id %d has dim %d, index dim %d", id, len(vec), e.dim)
	}
	e.seen[id] = true
	e.ids = append(e.ids, id)
	e.vecs = append(e.vecs, vec)
	return nil
}

// Len returns the number of stored vectors.
func (e *Exact) Len() int { return len(e.ids) }

// Search returns the exact k nearest neighbours of q.
func (e *Exact) Search(q embed.Vector, k int) []Result {
	if k <= 0 || len(e.ids) == 0 {
		return nil
	}
	res := make([]Result, len(e.ids))
	for i, v := range e.vecs {
		var d float64
		if e.metric == Euclidean {
			var s float64
			for j := range v {
				diff := float64(v[j]) - float64(q[j])
				s += diff * diff
			}
			d = s // monotone in true distance; fine for ranking
		} else {
			d = 1 - q.Cosine(v)
		}
		res[i] = Result{ID: e.ids[i], Distance: d}
	}
	sort.Slice(res, func(i, j int) bool { return res[i].Distance < res[j].Distance })
	if len(res) > k {
		res = res[:k]
	}
	return res
}
