package embed

import (
	"math"
	"testing"
	"testing/quick"
)

func newTestModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewRejectsBadDim(t *testing.T) {
	if _, err := New(Config{Dim: 0}); err == nil {
		t.Fatal("expected error for Dim=0")
	}
	if _, err := New(Config{Dim: -4}); err == nil {
		t.Fatal("expected error for negative Dim")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	m := newTestModel(t)
	a := m.encode("write a binary search in go")
	b := m.encode("write a binary search in go")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic embedding at dim %d", i)
		}
	}
}

func TestEncodeUnitNorm(t *testing.T) {
	m := newTestModel(t)
	v := m.encode("how do I boil water quickly")
	if n := v.Norm(); math.Abs(n-1) > 1e-5 {
		t.Fatalf("norm = %v, want 1", n)
	}
}

func TestEmptyTextIsZeroVector(t *testing.T) {
	m := newTestModel(t)
	v := m.encode("")
	if v.Norm() != 0 {
		t.Fatal("empty text should embed to zero vector")
	}
	if c := v.Cosine(m.encode("hello")); c != 0 {
		t.Fatalf("cosine with zero vector = %v, want 0", c)
	}
}

func TestNearDuplicatesScoreHigherThanUnrelated(t *testing.T) {
	m := newTestModel(t)
	base := m.encode("please explain how photosynthesis works in plants")
	dup := m.encode("please explain how photosynthesis works in the plants")
	other := m.encode("implement a thread safe queue in go with mutexes")
	simDup := base.Cosine(dup)
	simOther := base.Cosine(other)
	if simDup <= simOther {
		t.Fatalf("dup sim %.3f should exceed unrelated sim %.3f", simDup, simOther)
	}
	if simDup < 0.8 {
		t.Fatalf("near-duplicate similarity too low: %.3f", simDup)
	}
}

func TestFitChangesWeighting(t *testing.T) {
	m := newTestModel(t)
	corpus := []string{
		"please write code", "please write a poem", "please summarize this",
		"please translate this", "quantum entanglement basics",
	}
	unfittedSim := m.encode("please write code").Cosine(m.encode("please write a poem"))
	if err := m.Fit(corpus); err != nil {
		t.Fatal(err)
	}
	if m.idf == nil {
		t.Fatal("model should report fitted")
	}
	fittedSim := m.encode("please write code").Cosine(m.encode("please write a poem"))
	// IDF downweights the ubiquitous "please", so the shared-boilerplate
	// similarity should drop after fitting.
	if fittedSim >= unfittedSim {
		t.Fatalf("fit did not downweight common features: before %.3f after %.3f", unfittedSim, fittedSim)
	}
}

func TestFitEmptyCorpus(t *testing.T) {
	m := newTestModel(t)
	if err := m.Fit(nil); err != errEmptyCorpus {
		t.Fatalf("err = %v, want errEmptyCorpus", err)
	}
}

func TestEncodeBatchOrder(t *testing.T) {
	m := newTestModel(t)
	texts := []string{"alpha", "beta", "gamma"}
	vs := m.EncodeBatch(texts)
	if len(vs) != 3 {
		t.Fatalf("batch size = %d", len(vs))
	}
	for i, text := range texts {
		if c := vs[i].Cosine(m.encode(text)); c < 0.999 {
			t.Errorf("batch element %d mismatches single encode (cos %.4f)", i, c)
		}
	}
}

func TestCosineBoundsProperty(t *testing.T) {
	m := MustNew(Config{Dim: 64, Seed: 9, UseBigrams: true, UseCharTrigrams: true})
	f := func(a, b string) bool {
		c := m.encode(a).Cosine(m.encode(b))
		return c >= -1.0001 && c <= 1.0001 && !math.IsNaN(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelfCosineIsOneProperty(t *testing.T) {
	m := newTestModel(t)
	f := func(s string) bool {
		v := m.encode(s)
		if v.Norm() == 0 {
			return v.Cosine(v) == 0
		}
		return math.Abs(v.Cosine(v)-1) < 1e-4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeedSeparatesModels(t *testing.T) {
	a := MustNew(Config{Dim: 128, Seed: 1, UseBigrams: true})
	b := MustNew(Config{Dim: 128, Seed: 2, UseBigrams: true})
	va, vb := a.encode("same text"), b.encode("same text")
	if va.Cosine(vb) > 0.9 {
		t.Fatal("different seeds should give different feature spaces")
	}
}

func BenchmarkEncode(b *testing.B) {
	m := MustNew(DefaultConfig())
	text := "write a function that parses json and returns a map of string to interface"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.encode(text)
	}
}
