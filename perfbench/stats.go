package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the candidate tail percentiles, lowest first.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: fewer and the figure is one or two outliers.
const minBeyond = 10

// tail applies the reporting rule for tail latency: the highest
// candidate percentile with at least minBeyond samples beyond it. It
// returns the percentile, its value and the sample count; ok is false
// when even the median lacks minBeyond samples beyond it.
func tail(xs []float64) (pct, value float64, n int, ok bool) {
	n = len(xs)
	for _, p := range tailPercentiles {
		if !percentileOK(p, n) {
			break
		}
		pct, ok = p, true
	}
	if !ok {
		return 0, math.NaN(), n, false
	}
	return pct, quantile(xs, pct/100), n, true
}

// percentileOK reports whether the p-th percentile of n samples has at
// least minBeyond samples beyond it.
func percentileOK(p float64, n int) bool {
	// The epsilon absorbs rounding in 100-p (99.9 is not exact).
	return int(math.Floor(float64(n)*(100-p)/100+1e-6)) >= minBeyond
}
