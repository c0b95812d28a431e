package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if m := Mean([]float64{2, 4, 4, 4, 5, 5, 7, 9}); m != 5 {
		t.Fatalf("mean = %v", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("empty input should give 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, tt := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2},
	} {
		got, err := quantile(xs, tt.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if _, err := quantile(nil, 0.5); err != errNoData {
		t.Error("empty should return errNoData")
	}
	if _, err := quantile(xs, 1.5); err == nil {
		t.Error("q out of range should fail")
	}
}

func TestQuantileUnsortedInputUntouched(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatal("quantile mutated its input")
	}
}

func TestLinearRegressionRecoversLine(t *testing.T) {
	var x, y []float64
	for i := 0; i < 50; i++ {
		xi := float64(i)
		x = append(x, xi)
		y = append(y, 3+2*xi)
	}
	fit, err := LinearRegression(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-3) > 1e-9 || math.Abs(fit.Beta-2) > 1e-9 {
		t.Fatalf("fit = %+v", fit)
	}
	if p := fit.Predict(10); math.Abs(p-23) > 1e-9 {
		t.Fatalf("predict = %v", p)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	if _, err := LinearRegression([]float64{1}, []float64{1}); err != errNoData {
		t.Error("single point should fail with errNoData")
	}
	if _, err := LinearRegression([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := LinearRegression([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("constant predictor should fail")
	}
}

func TestLogistic(t *testing.T) {
	if Logistic(0) != 0.5 {
		t.Fatal("Logistic(0) != 0.5")
	}
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		v := Logistic(x)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBradleyTerryOrdersPlayers(t *testing.T) {
	// Player 0 beats 1 80% of the time, 1 beats 2 80% of the time.
	wins := [][]float64{
		{0, 80, 95},
		{20, 0, 80},
		{5, 20, 0},
	}
	s, err := BradleyTerry(wins, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !(s[0] > s[1] && s[1] > s[2]) {
		t.Fatalf("strength order wrong: %v", s)
	}
	wr := WinRate(s, 0, 1)
	if wr < 0.7 || wr > 0.9 {
		t.Fatalf("winrate(0,1) = %v, want near 0.8", wr)
	}
}

func TestBradleyTerryErrors(t *testing.T) {
	if _, err := BradleyTerry(nil, 10); err != errNoData {
		t.Error("empty should fail")
	}
	if _, err := BradleyTerry([][]float64{{0, 1}}, 10); err == nil {
		t.Error("non-square should fail")
	}
	if _, err := BradleyTerry([][]float64{{0, 0}, {0, 0}}, 10); err == nil {
		t.Error("all-zero should fail")
	}
	if _, err := BradleyTerry([][]float64{{0, -1}, {1, 0}}, 10); err == nil {
		t.Error("negative counts should fail")
	}
}

func TestBradleyTerryNormalised(t *testing.T) {
	wins := [][]float64{{0, 30}, {10, 0}}
	s, err := BradleyTerry(wins, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s[0]+s[1]) > 1e-6 {
		t.Fatalf("log strengths not centred: %v", s)
	}
}
