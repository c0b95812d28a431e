package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..1) of xs by linear
// interpolation between order statistics. xs is sorted in place. It
// returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return sortedPercentile(xs, p)
}

func sortedPercentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := p * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median returns the middle value without reordering the caller's
// slice; window values are kept in time order in the report.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them (the "exclusive" method),
// because the acceptance rule is stated in those terms.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // the i-th of 4 cut points
		pos := float64(i*(n+1)) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// theilSen returns the median of the slopes between every two points
// that lie more than minSep apart in x: a line fit that a few stalled
// windows cannot tilt. With fewer than ten such pairs there is nothing
// to fit and it returns 0.
func theilSen(xs, ys []float64, minSep float64) float64 {
	var slopes []float64
	for i := range xs {
		for j := i + 1; j < len(xs); j++ {
			if dx := xs[j] - xs[i]; math.Abs(dx) > minSep {
				slopes = append(slopes, (ys[j]-ys[i])/dx)
			}
		}
	}
	if len(slopes) < 10 {
		return 0
	}
	return percentile(slopes, 0.5)
}
