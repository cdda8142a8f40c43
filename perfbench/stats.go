package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie above a reported percentile
// for that percentile to be reported at all.
const minBeyond = 10

// minTailSamples is how many samples a p99 needs, with a little margin.
const minTailSamples = 100*minBeyond + 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs. It refuses when fewer than minBeyond samples lie strictly above
// the rank it picks: a tail percentile read off a handful of samples is
// one sample, not a distribution.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g out of (0, 100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work
// on a workload reports zero, not NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
