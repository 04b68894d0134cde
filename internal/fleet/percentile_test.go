package fleet

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"nvmgc/internal/metrics"
)

// randGroups builds a deterministic set of ascending per-instance series
// with mixed sizes (including empties).
func randGroups(rng *rand.Rand, n int) [][]float64 {
	groups := make([][]float64, n)
	for i := range groups {
		m := rng.IntN(40)
		g := make([]float64, m)
		for j := range g {
			g[j] = rng.ExpFloat64() * 10
		}
		sort.Float64s(g)
		groups[i] = g
	}
	return groups
}

// TestMergeSortedExact checks the merge against the brute force: sort the
// concatenation of all groups.
func TestMergeSortedExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 1))
	for trial := 0; trial < 200; trial++ {
		groups := randGroups(rng, 1+rng.IntN(9))
		var brute []float64
		for _, g := range groups {
			brute = append(brute, g...)
		}
		sort.Float64s(brute)
		merged := MergeSorted(groups)
		if len(merged) != len(brute) {
			t.Fatalf("trial %d: merged %d values, brute force %d", trial, len(merged), len(brute))
		}
		for i := range merged {
			if merged[i] != brute[i] {
				t.Fatalf("trial %d: merged[%d]=%v, brute force %v", trial, i, merged[i], brute[i])
			}
		}
	}
}

// TestMergeSortedPermutationInvariant shuffles the instance order and
// demands a bit-identical merged series.
func TestMergeSortedPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 1))
	for trial := 0; trial < 100; trial++ {
		groups := randGroups(rng, 2+rng.IntN(8))
		want := MergeSorted(groups)
		shuffled := append([][]float64(nil), groups...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := MergeSorted(shuffled)
		if len(got) != len(want) {
			t.Fatalf("trial %d: length changed under permutation", trial)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: merged[%d] %v != %v under permutation", trial, i, got[i], want[i])
			}
		}
	}
}

// TestMergeSortedManyGroups covers the tree shapes the fleet's eight
// instances never reach: every group count from 1 to 40 (padding to the
// next power of two, empty groups at either end) and counts past
// MaxInstances, where the tree no longer fits the stack. Values repeat
// across groups, so ties are common.
func TestMergeSortedManyGroups(t *testing.T) {
	rng := rand.New(rand.NewPCG(45, 1))
	counts := []int{MaxInstances - 1, MaxInstances, MaxInstances + 1, 3 * MaxInstances}
	for k := 1; k <= 40; k++ {
		counts = append(counts, k)
	}
	for _, k := range counts {
		groups := make([][]float64, k)
		var brute []float64
		for i := range groups {
			g := make([]float64, rng.IntN(6))
			for j := range g {
				g[j] = float64(rng.IntN(20)) - 5 // negatives, zeros and many ties
			}
			sort.Float64s(g)
			groups[i] = g
			brute = append(brute, g...)
		}
		sort.Float64s(brute)
		merged := MergeSorted(groups)
		if len(merged) != len(brute) {
			t.Fatalf("%d groups: merged %d values, brute force %d", k, len(merged), len(brute))
		}
		for i := range merged {
			if merged[i] != brute[i] {
				t.Fatalf("%d groups: merged[%d]=%v, brute force %v", k, i, merged[i], brute[i])
			}
		}
	}
}

// TestMergeSortedAllocs pins the merge's memory: the result and nothing
// else up to MaxInstances series (the tree lives on the stack), the
// result plus one O(k) tree beyond — never a scratch buffer the size of
// the result, which the pairwise merge this one replaced carried.
func TestMergeSortedAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(46, 1))
	for _, tc := range []struct{ groups, each, want int }{
		{1, 200, 1}, {8, 200, 1}, {MaxInstances, 200, 1}, {MaxInstances + 1, 200, 2},
		{8, 1 << 13, 1},
	} {
		groups := make([][]float64, tc.groups)
		for i := range groups {
			g := make([]float64, tc.each)
			for j := range g {
				g[j] = rng.ExpFloat64()
			}
			sort.Float64s(g)
			groups[i] = g
		}
		var merged []float64
		got := testing.AllocsPerRun(5, func() { merged = MergeSorted(groups) })
		if int(got) != tc.want {
			t.Errorf("%d groups of %d: %.0f allocations, want %d", tc.groups, tc.each, got, tc.want)
		}
		if cap(merged) != tc.groups*tc.each {
			t.Errorf("%d groups of %d: result capacity %d", tc.groups, tc.each, cap(merged))
		}
	}
}

// keyOrder is the order MergeSorted's series ascend in: headKey's, the
// float order with -0 below +0 and a NaN placed by its bits.
// sort.Float64s orders every series the same unless it holds both zeros
// or a NaN, where the float comparison cannot tell it how.
func keyOrder(a, b float64) int {
	return cmp.Compare(headKey([]float64{a}, 0), headKey([]float64{b}, 0))
}

// clampedNaN is the NaN whose order-preserving image is exhausted itself;
// headKey clamps it onto the key of math.Float64frombits(clampedNaN-1).
const clampedNaN = 0x7FFF_FFFF_FFFF_FFFF

// mergeGroups draws k series of n values in all from draw, each sorted
// by keyOrder. With dominant, about nine values in ten go to group k/2;
// with sparse, every odd-numbered group stays empty.
func mergeGroups(rng *rand.Rand, k, n int, dominant, sparse bool, draw func() float64) [][]float64 {
	groups := make([][]float64, k)
	for range n {
		g := rng.IntN(k)
		if dominant && rng.IntN(10) != 0 {
			g = k / 2
		}
		if sparse {
			g &^= 1
		}
		groups[g] = append(groups[g], draw())
	}
	for _, g := range groups {
		slices.SortFunc(g, keyOrder)
	}
	return groups
}

// checkMerge compares MergeSorted, bit for bit, with the stable sort of
// the series' concatenation in keyOrder: equal keys keep group-index
// order, as the merge promises.
func checkMerge(t *testing.T, name string, groups [][]float64) {
	t.Helper()
	want := slices.Concat(groups...)
	slices.SortStableFunc(want, keyOrder)
	got := MergeSorted(groups)
	if len(got) != len(want) {
		t.Fatalf("%s: MergeSorted wrote %d values of %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: MergeSorted[%d] is %#x, the sorted concatenation has %#x",
				name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestMergedQuantileProperties is the fleet-math property net: for every
// percentile the merged quantile is monotone in percentile order and
// sandwiched between the min and max of the per-instance quantiles. The
// sandwich bound is the reason the fleet reports nearest-rank quantiles —
// the interpolated estimator violates it (see the negative test below).
func TestMergedQuantileProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(44, 1))
	ps := []float64{1, 25, 50, 90, 95, 99, 99.9, 99.99}
	for trial := 0; trial < 200; trial++ {
		groups := randGroups(rng, 2+rng.IntN(6))
		// Drop empty groups for the sandwich bound (an empty instance
		// has no quantiles to bound with).
		var nonEmpty [][]float64
		for _, g := range groups {
			if len(g) > 0 {
				nonEmpty = append(nonEmpty, g)
			}
		}
		if len(nonEmpty) == 0 {
			continue
		}
		merged := MergeSorted(nonEmpty)
		prev := math.Inf(-1)
		for _, p := range ps {
			q := metrics.Quantile(merged, p)
			if q < prev {
				t.Fatalf("trial %d: merged quantile not monotone: p%v=%v after %v", trial, p, q, prev)
			}
			prev = q
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, g := range nonEmpty {
				gq := metrics.Quantile(g, p)
				lo = math.Min(lo, gq)
				hi = math.Max(hi, gq)
			}
			if q < lo || q > hi {
				t.Fatalf("trial %d: merged p%v=%v outside per-instance range [%v, %v]", trial, p, q, lo, hi)
			}
		}
	}
}

// TestQuantileEdges pins the degenerate inputs.
func TestQuantileEdges(t *testing.T) {
	if !math.IsNaN(metrics.Quantile(nil, 50)) {
		t.Fatal("empty series should yield NaN")
	}
	s := []float64{3, 5, 9}
	if got := metrics.Quantile(s, -5); got != 3 {
		t.Fatalf("p<=0 should select the minimum, got %v", got)
	}
	if got := metrics.Quantile(s, 0); got != 3 {
		t.Fatalf("p=0 should select the minimum, got %v", got)
	}
	if got := metrics.Quantile(s, 100); got != 9 {
		t.Fatalf("p=100 should select the maximum, got %v", got)
	}
	if got := metrics.Quantile(s, 150); got != 9 {
		t.Fatalf("p>100 should select the maximum, got %v", got)
	}
	if got := metrics.Quantile([]float64{7}, 99.9); got != 7 {
		t.Fatalf("singleton series should yield its element, got %v", got)
	}
	if got := metrics.Quantile(s, 50); got != 5 {
		t.Fatalf("median of three should be the middle element, got %v", got)
	}
	if n := len(MergeSorted(nil)); n != 0 {
		t.Fatalf("merging no groups should be empty, got %d values", n)
	}
	// MergeSorted must copy even the single-group case (callers sort and
	// slice the result).
	one := []float64{1, 2}
	m := MergeSorted([][]float64{one})
	m[0] = 99
	if one[0] != 1 {
		t.Fatal("MergeSorted aliased its input")
	}
}

// TestInterpolatedSandwichCounterexample documents why the fleet math is
// nearest-rank: the linear-interpolation estimator breaks the sandwich
// bound on exactly this input (two instances each observing {0ms, 1ms};
// the interpolated p25 of each instance is 0.25 but of the merge is 0.5),
// so fleet percentiles would not be bounded by per-instance percentiles.
func TestInterpolatedSandwichCounterexample(t *testing.T) {
	interp := func(s []float64, p float64) float64 {
		// The textbook linear-interpolation sample quantile.
		pos := p / 100 * float64(len(s)-1)
		lo := int(pos)
		if lo >= len(s)-1 {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	a := []float64{0, 1}
	b := []float64{0, 1}
	merged := MergeSorted([][]float64{a, b})
	p := 25.0
	mi := interp(merged, p)
	if lo, hi := interp(a, p), interp(b, p); mi >= lo && mi <= hi {
		t.Fatalf("expected the interpolated estimator to violate the sandwich bound, got %v in [%v, %v]", mi, lo, hi)
	}
	// Nearest-rank holds on the same input.
	mq := metrics.Quantile(merged, p)
	if lo, hi := metrics.Quantile(a, p), metrics.Quantile(b, p); mq < lo || mq > hi {
		t.Fatalf("nearest-rank broke its own bound: %v outside [%v, %v]", mq, lo, hi)
	}
}
