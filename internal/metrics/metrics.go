// Package metrics provides the statistical helpers shared by the
// evaluation harness: summary statistics, bootstrap confidence intervals,
// simple linear regression (for the length-controlled win-rate
// correction), and Bradley–Terry strength fitting (for Arena-Hard style
// aggregation).
package metrics

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// ErrNoData is returned by estimators given an empty sample.
var ErrNoData = errors.New("metrics: no data")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance, or 0 when n < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-quantile (0..1) of xs by linear interpolation.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoData
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("metrics: quantile %v out of [0,1]", q)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// QuantileOrZero is Quantile for reports that print 0 for an empty
// sample instead of failing.
func QuantileOrZero(xs []float64, q float64) float64 {
	v, err := Quantile(xs, q)
	if err != nil {
		return 0
	}
	return v
}

// Interval is a two-sided confidence interval around a point estimate.
type Interval struct {
	Point, Lo, Hi float64
}

// BootstrapMeanCI estimates a confidence interval for the mean of xs by
// the percentile bootstrap with the given number of resamples and
// confidence level (e.g. 0.95).
func BootstrapMeanCI(xs []float64, resamples int, level float64, seed int64) (Interval, error) {
	if len(xs) == 0 {
		return Interval{}, ErrNoData
	}
	if resamples < 1 {
		return Interval{}, fmt.Errorf("metrics: resamples must be >= 1, got %d", resamples)
	}
	if level <= 0 || level >= 1 {
		return Interval{}, fmt.Errorf("metrics: level must be in (0,1), got %v", level)
	}
	rng := rand.New(rand.NewSource(seed))
	means := make([]float64, resamples)
	for r := range means {
		var s float64
		for i := 0; i < len(xs); i++ {
			s += xs[rng.Intn(len(xs))]
		}
		means[r] = s / float64(len(xs))
	}
	alpha := (1 - level) / 2
	lo, err := Quantile(means, alpha)
	if err != nil {
		return Interval{}, err
	}
	hi, err := Quantile(means, 1-alpha)
	if err != nil {
		return Interval{}, err
	}
	return Interval{Point: Mean(xs), Lo: lo, Hi: hi}, nil
}

// LinFit holds the coefficients of y = Alpha + Beta*x.
type LinFit struct {
	Alpha, Beta float64
}

// LinearRegression fits ordinary least squares y = a + b*x.
// It returns an error when fewer than two points are given or x is
// constant.
func LinearRegression(x, y []float64) (LinFit, error) {
	if len(x) != len(y) {
		return LinFit{}, fmt.Errorf("metrics: x and y lengths differ (%d vs %d)", len(x), len(y))
	}
	if len(x) < 2 {
		return LinFit{}, ErrNoData
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy float64
	for i := range x {
		dx := x[i] - mx
		sxx += dx * dx
		sxy += dx * (y[i] - my)
	}
	if sxx == 0 {
		return LinFit{}, errors.New("metrics: constant predictor")
	}
	b := sxy / sxx
	return LinFit{Alpha: my - b*mx, Beta: b}, nil
}

// Predict evaluates the fitted line at x.
func (f LinFit) Predict(x float64) float64 { return f.Alpha + f.Beta*x }

// Logistic is the standard sigmoid.
func Logistic(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// BradleyTerry fits player strengths from a pairwise win matrix using the
// classic MM algorithm. wins[i][j] is the number of times i beat j.
// Strengths are normalised to mean 0 in log space.
// It returns an error when the matrix is not square or all-zero.
func BradleyTerry(wins [][]float64, iters int) ([]float64, error) {
	n := len(wins)
	if n == 0 {
		return nil, ErrNoData
	}
	var total float64
	for i := range wins {
		if len(wins[i]) != n {
			return nil, fmt.Errorf("metrics: wins matrix row %d has %d cols, want %d", i, len(wins[i]), n)
		}
		for j := range wins[i] {
			if wins[i][j] < 0 {
				return nil, fmt.Errorf("metrics: negative win count at (%d,%d)", i, j)
			}
			total += wins[i][j]
		}
	}
	if total == 0 {
		return nil, errors.New("metrics: empty win matrix")
	}
	p := make([]float64, n)
	for i := range p {
		p[i] = 1
	}
	for it := 0; it < iters; it++ {
		next := make([]float64, n)
		for i := 0; i < n; i++ {
			var wi float64
			var denom float64
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				games := wins[i][j] + wins[j][i]
				if games == 0 {
					continue
				}
				wi += wins[i][j]
				denom += games / (p[i] + p[j])
			}
			if denom == 0 {
				next[i] = p[i]
			} else {
				next[i] = wi / denom
			}
			if next[i] < 1e-9 {
				next[i] = 1e-9
			}
		}
		p = next
	}
	// Normalise in log space.
	var sum float64
	logs := make([]float64, n)
	for i, v := range p {
		logs[i] = math.Log(v)
		sum += logs[i]
	}
	mean := sum / float64(n)
	for i := range logs {
		logs[i] -= mean
	}
	return logs, nil
}

// WinRate converts Bradley–Terry log-strengths into the expected win
// probability of player i against player j.
func WinRate(logStrengths []float64, i, j int) float64 {
	return Logistic(logStrengths[i] - logStrengths[j])
}
