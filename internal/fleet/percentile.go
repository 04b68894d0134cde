package fleet

import "math"

// This file is the fleet's percentile math. Fleet-wide latency figures
// are computed by deterministically merging the per-instance latency
// series and taking *nearest-rank* quantiles of the merged multiset —
// not the linear-interpolation estimator metrics.Percentile uses. The
// choice is load-bearing for the property-test net: for nearest-rank
// quantiles the merged p-quantile is provably sandwiched between the
// minimum and maximum of the per-instance p-quantiles (see DESIGN.md
// §14), a bound that interpolated sample quantiles violate on small
// inputs. Nearest-rank is also the conventional reading of "p999" for
// SLO reporting: the smallest observed latency x such that at least
// 99.9% of requests completed within x.

// MergeSorted merges ascending per-instance latency series into one
// ascending fleet series. The merge is pairwise-recursive, so the result
// (a sorted multiset) is independent of instance order and of how the
// instances were fanned out over host workers.
func MergeSorted(groups [][]float64) []float64 {
	switch len(groups) {
	case 0:
		return nil
	case 1:
		return append([]float64(nil), groups[0]...)
	}
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	return mergeRuns(groups, make([]float64, n), make([]float64, n))
}

// mergeRuns merges groups into the front of dst. The two halves are
// merged one level down with the buffers' roles swapped, so every level
// ping-pongs between the same two allocations; a single group is read
// where it lies. dst and scratch hold at least the groups' total.
func mergeRuns(groups [][]float64, dst, scratch []float64) []float64 {
	if len(groups) == 1 {
		return groups[0]
	}
	mid := len(groups) / 2
	a := mergeRuns(groups[:mid], scratch, dst)
	b := mergeRuns(groups[mid:], scratch[len(a):], dst[len(a):])
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	k += copy(dst[k:], b[j:])
	return dst[:k]
}

// Quantile returns the nearest-rank p-quantile (p in 0..100) of an
// ascending series: the element at rank ceil(p/100 * n). It returns NaN
// for an empty series; p <= 0 selects the minimum, p >= 100 the maximum.
func Quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1]
}

// Quantiles computes several nearest-rank quantiles of one ascending
// series.
func Quantiles(sorted []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = Quantile(sorted, p)
	}
	return out
}
