package main

import (
	"slices"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs, sorting xs in
// place; 0 for an empty slice.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return float64(xs[i])
}

// median returns the median of xs (mean of the middle pair for an even
// count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio divides, reading 0/0 as 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
