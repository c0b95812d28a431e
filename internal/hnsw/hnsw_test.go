package hnsw

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/embed"
)

func randVec(rng *rand.Rand, dim int) embed.Vector {
	v := make(embed.Vector, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	var n float64
	for _, x := range v {
		n += float64(x) * float64(x)
	}
	n = math.Sqrt(n)
	for i := range v {
		v[i] = float32(float64(v[i]) / n)
	}
	return v
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{M: 1, EfConstruction: 10, EfSearch: 10}); err == nil {
		t.Error("M=1 should fail")
	}
	if _, err := New(Config{M: 8, EfConstruction: 0, EfSearch: 10}); err == nil {
		t.Error("EfConstruction=0 should fail")
	}
	if _, err := New(Config{M: 8, EfConstruction: 10, EfSearch: 0}); err == nil {
		t.Error("EfSearch=0 should fail")
	}
}

func TestAddErrors(t *testing.T) {
	ix := MustNew(DefaultConfig())
	v := embed.Vector{1, 0, 0}
	if err := ix.Add(1, v); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(1, v); err == nil {
		t.Error("duplicate id should fail")
	}
	if err := ix.Add(2, nil); err == nil {
		t.Error("empty vector should fail")
	}
	if err := ix.Add(3, embed.Vector{1, 0}); err == nil {
		t.Error("dimension mismatch should fail")
	}
}

func TestEmptyIndexSearch(t *testing.T) {
	ix := MustNew(DefaultConfig())
	if got := ix.Search(embed.Vector{1, 0}, 5); got != nil {
		t.Fatalf("search on empty index = %v, want nil", got)
	}
}

func TestSingleElement(t *testing.T) {
	ix := MustNew(DefaultConfig())
	if err := ix.Add(42, embed.Vector{0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	res := ix.Search(embed.Vector{0, 1, 0}, 3)
	if len(res) != 1 || res[0].ID != 42 {
		t.Fatalf("res = %v", res)
	}
	if res[0].Distance > 1e-6 {
		t.Fatalf("self distance = %v", res[0].Distance)
	}
}

func TestExactMatchIsTopResult(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ix := MustNew(DefaultConfig())
	vecs := make([]embed.Vector, 200)
	for i := range vecs {
		vecs[i] = randVec(rng, 32)
		if err := ix.Add(i, vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, probe := range []int{0, 57, 123, 199} {
		res := ix.Search(vecs[probe], 1)
		if len(res) != 1 || res[0].ID != probe {
			t.Fatalf("probe %d: got %v", probe, res)
		}
	}
}

// TestRecallAgainstExact is the core quality gate: HNSW recall@10 versus
// brute force must be high on clustered data, since dedup correctness
// depends on finding true neighbours.
func TestRecallAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, dim, k = 1000, 32, 10
	ix := MustNew(DefaultConfig())
	ex := NewExact(Cosine)
	// Clustered data: 20 centroids with local noise, like deduplicated
	// prompt families.
	centroids := make([]embed.Vector, 20)
	for i := range centroids {
		centroids[i] = randVec(rng, dim)
	}
	vecs := make([]embed.Vector, n)
	for i := 0; i < n; i++ {
		c := centroids[i%len(centroids)]
		v := make(embed.Vector, dim)
		for j := range v {
			v[j] = c[j] + float32(rng.NormFloat64()*0.15)
		}
		vecs[i] = v
		if err := ix.Add(i, v); err != nil {
			t.Fatal(err)
		}
		if err := ex.Add(i, v); err != nil {
			t.Fatal(err)
		}
	}
	var hit, total int
	for q := 0; q < 50; q++ {
		query := randVec(rng, dim)
		truth := ex.Search(query, k)
		approx := ix.SearchEf(query, k, 128)
		truthSet := map[int]bool{}
		for _, r := range truth {
			truthSet[r.ID] = true
		}
		for _, r := range approx {
			if truthSet[r.ID] {
				hit++
			}
		}
		total += len(truth)
	}
	recall := float64(hit) / float64(total)
	if recall < 0.9 {
		t.Fatalf("recall@%d = %.3f, want >= 0.9", k, recall)
	}
}

func TestResultsSortedByDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ix := MustNew(DefaultConfig())
	for i := 0; i < 300; i++ {
		if err := ix.Add(i, randVec(rng, 16)); err != nil {
			t.Fatal(err)
		}
	}
	res := ix.Search(randVec(rng, 16), 20)
	for i := 1; i < len(res); i++ {
		if res[i].Distance < res[i-1].Distance {
			t.Fatalf("results not sorted at %d: %v", i, res)
		}
	}
}

func TestDeterministicBuild(t *testing.T) {
	build := func() []Result {
		rng := rand.New(rand.NewSource(5))
		ix := MustNew(DefaultConfig())
		var query embed.Vector
		for i := 0; i < 400; i++ {
			v := randVec(rng, 24)
			if i == 0 {
				query = v
			}
			if err := ix.Add(i, v); err != nil {
				t.Fatal(err)
			}
		}
		return ix.Search(query, 10)
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatal("different result counts across identical builds")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEuclideanMetric(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Metric = Euclidean
	ix := MustNew(cfg)
	pts := []embed.Vector{{0, 0}, {1, 0}, {5, 5}}
	for i, p := range pts {
		if err := ix.Add(i, p); err != nil {
			t.Fatal(err)
		}
	}
	res := ix.Search(embed.Vector{0.9, 0}, 1)
	if res[0].ID != 1 {
		t.Fatalf("nearest = %v, want id 1", res)
	}
}

func TestMetricString(t *testing.T) {
	if Cosine.String() != "cosine" || Euclidean.String() != "euclidean" {
		t.Error("metric names wrong")
	}
	if Metric(9).String() != "Metric(9)" {
		t.Error("unknown metric format wrong")
	}
}

func TestVectorLookup(t *testing.T) {
	ix := MustNew(DefaultConfig())
	v := embed.Vector{0.6, 0.8}
	if err := ix.Add(7, v); err != nil {
		t.Fatal(err)
	}
	got, ok := ix.Vector(7)
	if !ok || got.Cosine(v) < 0.999 {
		t.Fatalf("Vector(7) = %v, %v", got, ok)
	}
	if _, ok := ix.Vector(99); ok {
		t.Error("missing id should not be found")
	}
}

func TestIDsInsertionOrder(t *testing.T) {
	ix := MustNew(DefaultConfig())
	for _, id := range []int{9, 4, 7} {
		if err := ix.Add(id, embed.Vector{1, float32(id)}); err != nil {
			t.Fatal(err)
		}
	}
	ids := ix.IDs()
	if len(ids) != 3 || ids[0] != 9 || ids[1] != 4 || ids[2] != 7 {
		t.Fatalf("IDs = %v", ids)
	}
}

func TestKLargerThanIndex(t *testing.T) {
	ix := MustNew(DefaultConfig())
	for i := 0; i < 5; i++ {
		if err := ix.Add(i, embed.Vector{float32(i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	res := ix.Search(embed.Vector{2, 1}, 50)
	if len(res) != 5 {
		t.Fatalf("got %d results, want all 5", len(res))
	}
}

func TestExactDuplicateAndDimErrors(t *testing.T) {
	e := NewExact(Cosine)
	if err := e.Add(1, embed.Vector{1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(1, embed.Vector{1, 0}); err == nil {
		t.Error("duplicate should fail")
	}
	if err := e.Add(2, embed.Vector{1}); err == nil {
		t.Error("dim mismatch should fail")
	}
	if err := e.Add(3, nil); err == nil {
		t.Error("empty vec should fail")
	}
	if e.Len() != 1 {
		t.Errorf("Len = %d", e.Len())
	}
}

func TestNoHeuristicStillWorks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Heuristic = false
	rng := rand.New(rand.NewSource(13))
	ix := MustNew(cfg)
	vecs := make([]embed.Vector, 150)
	for i := range vecs {
		vecs[i] = randVec(rng, 16)
		if err := ix.Add(i, vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	res := ix.Search(vecs[42], 1)
	if len(res) != 1 || res[0].ID != 42 {
		t.Fatalf("res = %v", res)
	}
}

func BenchmarkHNSWAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vecs := make([]embed.Vector, b.N)
	for i := range vecs {
		vecs[i] = randVec(rng, 64)
	}
	ix := MustNew(DefaultConfig())
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ix.Add(i, vecs[i]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHNSWSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	ix := MustNew(DefaultConfig())
	for i := 0; i < 5000; i++ {
		if err := ix.Add(i, randVec(rng, 64)); err != nil {
			b.Fatal(err)
		}
	}
	q := randVec(rng, 64)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix.Search(q, 10)
	}
}

// TestStoredNormsGiveCosineBits: the index divides by norms it stored at
// Add and at the top of a search; every distance it reports must be the
// float embed.Vector.Cosine gives, bit for bit — unnormalised and zero
// vectors included — or the curated dataset downstream would move.
func TestStoredNormsGiveCosineBits(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ix := MustNew(DefaultConfig())
	vecs := map[int]embed.Vector{}
	for i := 0; i < 300; i++ {
		v := randVec(rng, 24)
		for j := range v {
			v[j] *= float32(1 + i%7) // off the unit sphere
		}
		if i == 150 {
			v = make(embed.Vector, 24) // zero vector: Cosine is 0, distance 1
		}
		vecs[i] = v
		if err := ix.Add(i, v); err != nil {
			t.Fatal(err)
		}
	}
	queries := []embed.Vector{make(embed.Vector, 24), vecs[150], vecs[3]}
	for i := 0; i < 40; i++ {
		queries = append(queries, randVec(rng, 24))
	}
	for _, q := range queries {
		for _, r := range ix.Search(q, 300) {
			if want := 1 - q.Cosine(vecs[r.ID]); r.Distance != want {
				t.Fatalf("distance to id %d = %v, 1 - Cosine = %v", r.ID, r.Distance, want)
			}
		}
	}
}
