package fleet

import (
	"math"
	"math/bits"
)

// This file is the fleet's merge math. Fleet-wide latency figures are
// computed by deterministically merging the per-instance latency series
// and taking nearest-rank quantiles (metrics.Quantile) of the merged
// multiset, which stay sandwiched between the per-instance quantiles.

// MergeSorted merges ascending per-instance latency series into one
// ascending fleet series: a k-way merge over the series' heads through a
// loser tree, written straight into the one result allocation. Equal
// values leave in group-index order; the result is a sorted multiset
// either way, independent of instance order and of how the instances
// were fanned out over host workers. A series ascends in headKey's
// order: the float order, with -0 below +0 and a NaN placed by its bits
// (sortToMs's whole-nanosecond series have neither).
func MergeSorted(groups [][]float64) []float64 {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	// The tree is three words per leaf; up to MaxInstances series it
	// lives on the stack, so a merge allocates nothing beyond out.
	leaves := 1
	for leaves < len(groups) {
		leaves *= 2
	}
	var onStack [3 * MaxInstances]uint64
	words := onStack[:]
	if 3*leaves > len(words) {
		words = make([]uint64, 3*leaves)
	}
	t := loserTree{
		groups: groups,
		pos:    words[:leaves], loser: words[leaves : 2*leaves], loserKey: words[2*leaves : 3*leaves],
	}
	w, _ := t.build(1)
	for i := range out {
		g := groups[w]
		p := t.pos[w]
		out[i] = g[p]
		p++
		t.pos[w] = p
		w = t.replay(w, headKey(g, p))
	}
	return out
}

// loserTree is a tournament over the series' heads. Leaf g is series g,
// pos[g] the index of its head; the leaves are padded to a power of two
// with empty series. Internal node i has children 2i and 2i+1, leaf g
// standing at position len(pos)+g, and loser[i], loserKey[i] are the
// series that lost the match played at i and its head's key. A series
// beats another when its (key, index) pair is smaller.
type loserTree struct {
	groups               [][]float64
	pos, loser, loserKey []uint64
}

// exhausted is the key of a series with nothing left; every head beats it.
const exhausted = ^uint64(0)

// headKey maps element p of a series to a uint64 that orders the way the
// floats do — the sign bit is set on a non-negative value and every bit
// is flipped on a negative one — or to exhausted past the end. Only one
// NaN bit pattern would map onto exhausted itself; the clamp keeps even
// that head a real one, so the winner always has an element to give.
func headKey(g []float64, p uint64) uint64 {
	if p >= uint64(len(g)) {
		return exhausted
	}
	b := math.Float64bits(g[p])
	return min(b^(uint64(int64(b)>>63)|1<<63), exhausted-1)
}

// beats returns all ones when series a with head key ak beats series b
// with head key bk, else zero: the two-word subtraction (ak:a) - (bk:b)
// borrows exactly then. Which head is smaller is as good as random, so
// the merge never decides it with a jump.
func beats(a, ak, b, bk uint64) uint64 {
	_, borrow := bits.Sub64(a, b, 0)
	_, borrow = bits.Sub64(ak, bk, borrow)
	return -borrow
}

// build plays the matches below node and returns their winner.
func (t *loserTree) build(node uint64) (w, wk uint64) {
	if n := uint64(len(t.pos)); node >= n {
		g := node - n
		if g >= uint64(len(t.groups)) {
			return g, exhausted
		}
		return g, headKey(t.groups[g], 0)
	}
	a, ak := t.build(2 * node)
	b, bk := t.build(2*node + 1)
	m := beats(b, bk, a, ak) // all ones: b won and a stays behind
	t.loser[node], t.loserKey[node] = b^(a^b)&m, bk^(ak^bk)&m
	return a ^ (a^b)&m, ak ^ (ak^bk)&m
}

// replay re-plays series w's matches from its leaf to the root now that
// its head key is wk, and returns the new overall winner. The nodes on
// the path depend on the leaf alone, so their loads do not wait for the
// matches below them.
func (t *loserTree) replay(w, wk uint64) uint64 {
	for node := (uint64(len(t.pos)) + w) / 2; node >= 1; node /= 2 {
		l, lk := t.loser[node], t.loserKey[node]
		m := beats(l, lk, w, wk)
		t.loser[node], t.loserKey[node] = l^(l^w)&m, lk^(lk^wk)&m
		w, wk = w^(l^w)&m, wk^(lk^wk)&m
	}
	return w
}
