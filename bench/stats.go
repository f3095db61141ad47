package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count), 0 for an empty slice. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of a
// sorted slice, 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailPerMille are the candidates of the reporting rule, ascending, in
// thousandths so that the sample arithmetic is exact.
var tailPerMille = []int{900, 950, 990, 999}

// tailPercentile is the reporting rule of the metrics guide: beside the
// median, report the highest percentile that still has at least ten samples
// beyond it. It returns 50 when even p90 has fewer (n < 100).
func tailPercentile(n int) float64 {
	best := 50.0
	for _, pm := range tailPerMille {
		if n*(1000-pm)/1000 >= 10 {
			best = float64(pm) / 10
		}
	}
	return best
}

// ratio is a/b, 0 when b is 0 (a layer that did no work has no ratio).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
