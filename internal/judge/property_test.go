package judge

import (
	"math"
	"testing"
	"testing/quick"
)

// TestCompareProbBoundsProperty: ProbA is a probability and the two
// orderings are complementary (prob(A beats B) + prob(B beats A) = 1,
// since scores are order-free).
func TestCompareProbBoundsProperty(t *testing.T) {
	j := MustNew(DefaultConfig())
	f := func(prompt, a, b, salt string) bool {
		v1 := j.Compare(prompt, a, b, salt)
		v2 := j.Compare(prompt, b, a, salt)
		if v1.ProbA < 0 || v1.ProbA > 1 || math.IsNaN(v1.ProbA) {
			return false
		}
		return math.Abs(v1.ProbA+v2.ProbA-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestScoreFiniteProperty: Score never returns NaN or infinity for any
// text pair.
func TestScoreFiniteProperty(t *testing.T) {
	j := MustNew(DefaultConfig())
	f := func(prompt, resp string) bool {
		s := j.Score(prompt, resp)
		return !math.IsNaN(s) && !math.IsInf(s, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestScoreMatchesVerdictProperty: AWins with zero noise is exactly the
// sign of the score difference.
func TestScoreMatchesVerdictProperty(t *testing.T) {
	noiseless := MustNew(Config{LengthBias: 0.2, Noise: 0, Seed: 5})
	f := func(prompt, a, b string) bool {
		v := noiseless.Compare(prompt, a, b, "s")
		return v.AWins == (noiseless.Score(prompt, a) > noiseless.Score(prompt, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
