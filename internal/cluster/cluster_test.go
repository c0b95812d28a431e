package cluster

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/embed"
	"repro/internal/hnsw"
)

func unitVec(angle float64) embed.Vector {
	return embed.Vector{float32(math.Cos(angle)), float32(math.Sin(angle))}
}

func perturbed(rng *rand.Rand, base embed.Vector, eps float64) embed.Vector {
	v := make(embed.Vector, len(base))
	var n float64
	for i := range base {
		v[i] = base[i] + float32(rng.NormFloat64()*eps)
	}
	for _, x := range v {
		n += float64(x) * float64(x)
	}
	n = math.Sqrt(n)
	for i := range v {
		v[i] = float32(float64(v[i]) / n)
	}
	return v
}

func TestNearDuplicatesGroupsParaphrases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Three well-separated directions in 16-d, each with 5 jittered copies.
	bases := make([]embed.Vector, 3)
	for b := range bases {
		v := make(embed.Vector, 16)
		v[b*5] = 1
		bases[b] = v
	}
	var vecs []embed.Vector
	for _, b := range bases {
		for i := 0; i < 5; i++ {
			vecs = append(vecs, perturbed(rng, b, 0.05))
		}
	}
	groups, err := NearDuplicates(vecs, DefaultDedupConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3: %+v", len(groups), groups)
	}
	for _, g := range groups {
		if len(g.Members) != 5 {
			t.Errorf("group size %d, want 5", len(g.Members))
		}
		// Representative must be a member.
		found := false
		for _, m := range g.Members {
			if m == g.Representative {
				found = true
			}
		}
		if !found {
			t.Errorf("representative %d not in group %v", g.Representative, g.Members)
		}
	}
}

func TestNearDuplicatesMatchesExactOnSmallData(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := make(embed.Vector, 8)
	base[0] = 1
	var vecs []embed.Vector
	for i := 0; i < 6; i++ {
		vecs = append(vecs, perturbed(rng, base, 0.03))
	}
	other := make(embed.Vector, 8)
	other[4] = 1
	vecs = append(vecs, other)

	approx, err := NearDuplicates(vecs, DefaultDedupConfig())
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NearDuplicatesExact(vecs, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if len(approx) != len(exact) {
		t.Fatalf("approx %d groups vs exact %d", len(approx), len(exact))
	}
}

func TestNearDuplicatesValidation(t *testing.T) {
	if _, err := NearDuplicates(nil, DedupConfig{Threshold: 0, K: 5, Index: hnsw.DefaultConfig()}); err == nil {
		t.Error("threshold 0 should fail")
	}
	if _, err := NearDuplicates(nil, DedupConfig{Threshold: 1.2, K: 5, Index: hnsw.DefaultConfig()}); err == nil {
		t.Error("threshold > 1 should fail")
	}
	if _, err := NearDuplicates(nil, DedupConfig{Threshold: 0.8, K: 0, Index: hnsw.DefaultConfig()}); err == nil {
		t.Error("K=0 should fail")
	}
	if _, err := NearDuplicatesExact(nil, -1); err == nil {
		t.Error("exact with bad threshold should fail")
	}
}

func TestNearDuplicatesEmptyInput(t *testing.T) {
	groups, err := NearDuplicates(nil, DefaultDedupConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 0 {
		t.Fatalf("groups = %v", groups)
	}
}

func TestKMeansSeparatesObviousClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := unitVec(0), unitVec(math.Pi/2)
	var vecs []embed.Vector
	for i := 0; i < 20; i++ {
		vecs = append(vecs, perturbed(rng, a, 0.05))
	}
	for i := 0; i < 20; i++ {
		vecs = append(vecs, perturbed(rng, b, 0.05))
	}
	assign, err := KMeans(vecs, 2, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	// All of the first 20 must share a label, all of the last 20 the other.
	for i := 1; i < 20; i++ {
		if assign[i] != assign[0] {
			t.Fatalf("first cluster split: %v", assign)
		}
	}
	for i := 21; i < 40; i++ {
		if assign[i] != assign[20] {
			t.Fatalf("second cluster split: %v", assign)
		}
	}
	if assign[0] == assign[20] {
		t.Fatal("clusters merged")
	}
}

func TestKMeansValidation(t *testing.T) {
	if _, err := KMeans(nil, 2, 5, 1); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := KMeans([]embed.Vector{{1, 0}}, 0, 5, 1); err == nil {
		t.Error("k=0 should fail")
	}
}

func TestKMeansKLargerThanData(t *testing.T) {
	vecs := []embed.Vector{unitVec(0), unitVec(1)}
	assign, err := KMeans(vecs, 10, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(assign) != 2 {
		t.Fatalf("assign = %v", assign)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var vecs []embed.Vector
	for i := 0; i < 50; i++ {
		vecs = append(vecs, perturbed(rng, unitVec(float64(i%5)), 0.1))
	}
	a, err := KMeans(vecs, 5, 15, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(vecs, 5, 15, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("k-means not deterministic for fixed seed")
		}
	}
}

func TestKCenterGreedyPicksDiverse(t *testing.T) {
	// 10 near-identical points plus 2 outliers; selecting 3 must include
	// both outliers.
	rng := rand.New(rand.NewSource(5))
	var vecs []embed.Vector
	for i := 0; i < 10; i++ {
		vecs = append(vecs, perturbed(rng, unitVec(0), 0.02))
	}
	vecs = append(vecs, unitVec(math.Pi/2), unitVec(math.Pi))
	sel := KCenterGreedy(vecs, 3)
	if len(sel) != 3 {
		t.Fatalf("selected %v", sel)
	}
	has := func(i int) bool {
		for _, s := range sel {
			if s == i {
				return true
			}
		}
		return false
	}
	if !has(10) || !has(11) {
		t.Fatalf("outliers not selected: %v", sel)
	}
}

func TestKCenterGreedyEdgeCases(t *testing.T) {
	if KCenterGreedy(nil, 3) != nil {
		t.Error("empty input should return nil")
	}
	if KCenterGreedy([]embed.Vector{unitVec(0)}, 0) != nil {
		t.Error("m=0 should return nil")
	}
	sel := KCenterGreedy([]embed.Vector{unitVec(0), unitVec(1)}, 10)
	if len(sel) != 2 {
		t.Fatalf("m>n should clamp: %v", sel)
	}
}

func TestGroupsPartitionInput(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var vecs []embed.Vector
	for i := 0; i < 60; i++ {
		vecs = append(vecs, perturbed(rng, unitVec(float64(i%6)), 0.04))
	}
	groups, err := NearDuplicates(vecs, DefaultDedupConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, g := range groups {
		for _, m := range g.Members {
			if seen[m] {
				t.Fatalf("index %d in two groups", m)
			}
			seen[m] = true
		}
	}
	if len(seen) != len(vecs) {
		t.Fatalf("groups cover %d of %d items", len(seen), len(vecs))
	}
}

func BenchmarkNearDuplicates1k(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	var vecs []embed.Vector
	for i := 0; i < 1000; i++ {
		base := make(embed.Vector, 32)
		base[i%20] = 1
		vecs = append(vecs, perturbed(rng, base, 0.1))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NearDuplicates(vecs, DefaultDedupConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// KCenterGreedy selects m diverse indices by repeatedly taking the point
// farthest (in cosine distance) from the already-selected set, the
// diversity-selection algorithm the data-selection literature in §2.3 uses.
// The first pick is the point closest to the dataset mean, making the
// output deterministic.
func KCenterGreedy(vecs []embed.Vector, m int) []int {
	if m <= 0 || len(vecs) == 0 {
		return nil
	}
	if m > len(vecs) {
		m = len(vecs)
	}
	dim := len(vecs[0])
	mean := make(embed.Vector, dim)
	for _, v := range vecs {
		for j := range v {
			mean[j] += v[j]
		}
	}
	first, bestSim := 0, math.Inf(-1)
	for i, v := range vecs {
		if s := v.Cosine(mean); s > bestSim {
			first, bestSim = i, s
		}
	}
	selected := []int{first}
	minDist := make([]float64, len(vecs))
	for i, v := range vecs {
		minDist[i] = 1 - v.Cosine(vecs[first])
	}
	for len(selected) < m {
		far, farDist := -1, -1.0
		for i, d := range minDist {
			if d > farDist {
				far, farDist = i, d
			}
		}
		selected = append(selected, far)
		for i, v := range vecs {
			if d := 1 - v.Cosine(vecs[far]); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	sort.Ints(selected)
	return selected
}
