package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestWinRateComplementProperty: implied win rates from any fitted
// Bradley-Terry model are complementary.
func TestWinRateComplementProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%5 + 2
		rng := rand.New(rand.NewSource(seed))
		wins := make([][]float64, n)
		for i := range wins {
			wins[i] = make([]float64, n)
			for j := range wins[i] {
				if i != j {
					wins[i][j] = float64(rng.Intn(20) + 1)
				}
			}
		}
		s, err := BradleyTerry(wins, 100)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(WinRate(s, i, j)+WinRate(s, j, i)-1) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBradleyTerryOrderingProperty: in a two-player model, more wins
// means higher strength.
func TestBradleyTerryOrderingProperty(t *testing.T) {
	f := func(aRaw, bRaw uint8) bool {
		a := float64(aRaw%50) + 1
		b := float64(bRaw%50) + 1
		s, err := BradleyTerry([][]float64{{0, a}, {b, 0}}, 200)
		if err != nil {
			return false
		}
		switch {
		case a > b:
			return s[0] > s[1]
		case b > a:
			return s[1] > s[0]
		default:
			return math.Abs(s[0]-s[1]) < 1e-6
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuantileMonotoneProperty: quantiles are monotone in q and bounded
// by the sample extremes.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%40 + 1
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0001; q += 0.1 {
			qq := q
			if qq > 1 {
				qq = 1
			}
			v, err := quantile(xs, qq)
			if err != nil {
				return false
			}
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		lo, _ := quantile(xs, 0)
		hi, _ := quantile(xs, 1)
		return lo <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
