package main

import (
	"math"
	"slices"
)

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for no values.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(values))
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// so a spread computed here reads the same as one computed there. Fewer
// than two values have no spread: both quartiles are the value itself.
func quartiles(values []float64) (q1, q3 float64) {
	n := len(values)
	if n < 2 {
		return median(values), median(values)
	}
	s := slices.Sorted(slices.Values(values))
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile range as a share of the median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	return div(q3-q1, math.Abs(median(values)))
}
