package generator

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// ZipfianConstant is the default skew: the YCSB standard θ=0.99.
const ZipfianConstant = 0.99

// Zipfian draws from a zipfian distribution over [base, base+items):
// rank 0 is the most popular value, with popularity ∝ 1/(rank+1)^θ.
// The implementation is Gray et al.'s rejection-free construction
// ("Quickly generating billion-record synthetic databases", SIGMOD'94),
// including the incremental-item handling: growing the item count via
// ForItems extends ζ(n,θ) by summing only the new terms instead of
// recomputing the whole series, so a population that grows by one key
// per insert costs O(1) amortized per op.
type Zipfian struct {
	rng   *rand.Rand
	base  int64
	items int64
	theta float64

	alpha, zeta2 float64
	zetan, eta   float64
	countForZeta int64 // the n that zetan currently covers

	// rank1 is 1 + 0.5^θ, the uz threshold below which Next returns rank
	// 1. It depends on theta alone, which never changes after
	// construction (ForItems resizes items, zetan and eta), so it is
	// computed where theta is set rather than on every draw.
	rank1 float64

	// table, when set, answers Next without evaluating the formula; see
	// rankTable. ForItems to a different count drops it for good.
	table *rankTable

	last int64
}

// NewZipfian returns a zipfian generator over [min, max] with skew theta
// (use ZipfianConstant for the YCSB default). theta must be in (0, 1).
func NewZipfian(rng *rand.Rand, min, max int64, theta float64) (*Zipfian, error) {
	if max < min {
		return nil, fmt.Errorf("generator: zipfian range [%d, %d] inverted", min, max)
	}
	if theta <= 0 || theta >= 1 {
		return nil, fmt.Errorf("generator: zipfian theta %g outside (0, 1)", theta)
	}
	z := &Zipfian{rng: rng, base: min, items: max - min + 1, theta: theta}
	z.alpha = 1 / (1 - theta)
	z.rank1 = rank1Threshold(theta)
	z.zeta2 = zeta(0, 2, theta, 0)
	z.zetan = zeta(0, z.items, theta, 0)
	z.countForZeta = z.items
	z.eta = z.computeEta()
	z.table = newRankTable(z)
	return z, nil
}

// zeta extends ζ(n,θ) from a partial sum: given sum = ζ(st,θ) it returns
// ζ(n,θ) by adding the terms for ranks st..n-1 (st = 0 computes from
// scratch).
func zeta(st, n int64, theta, sum float64) float64 {
	for i := st; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
	}
	return sum
}

// rank1Threshold is Gray's 1 + 0.5^θ: with uz = u·ζ(n,θ), ranks 0 and 1
// own the intervals [0, 1) and [1, 1 + 0.5^θ).
func rank1Threshold(theta float64) float64 { return 1 + math.Pow(0.5, theta) }

func (z *Zipfian) computeEta() float64 {
	return (1 - math.Pow(2/float64(z.items), 1-z.theta)) / (1 - z.zeta2/z.zetan)
}

// ForItems resizes the distribution to n items. Growth reuses the
// running ζ sum (Gray's incremental handling); shrinking — rare, only a
// capped live window — recomputes.
func (z *Zipfian) ForItems(n int64) {
	if n == z.items {
		return
	}
	z.table = nil
	switch {
	case n > z.countForZeta:
		z.zetan = zeta(z.countForZeta, n, z.theta, z.zetan)
		z.countForZeta = n
	case n < z.countForZeta:
		z.zetan = zeta(0, n, z.theta, 0)
		z.countForZeta = n
	}
	z.items = n
	z.eta = z.computeEta()
}

// Items returns the current item count.
func (z *Zipfian) Items() int64 { return z.items }

// Next draws the next rank (base+0 is the hottest).
func (z *Zipfian) Next() int64 {
	// The 53 bits rand.Float64 keeps: it returns k / 2^53.
	k := z.rng.Uint64() << 11 >> 11
	if t := z.table; t != nil {
		r := uint(t.guide[k>>guideShift&(guideBuckets-1)])
		for k >= t.cut[r+1] {
			r++
		}
		if k-t.cut[r] >= guard && t.cut[r+1]-k > guard {
			z.last = z.base + int64(r)
			return z.last
		}
	}
	z.last = z.base + z.rank(float64(k)/drawSpan)
	return z.last
}

// rank is Gray's formula: the rank of the uniform draw u in [0, 1).
// Up to two items every rank is below the Pow branch, whose eta is 0/0
// there, but ζ(2,θ) can exceed rank1 by an ulp and let the top draws
// through; those are rank 1 (clamped to items-1), not int64(NaN).
func (z *Zipfian) rank(u float64) int64 {
	uz := u * z.zetan
	var v int64
	switch {
	case uz < 1:
		v = 0
	case uz < z.rank1 || z.items <= 2:
		v = 1
	default:
		v = int64(float64(z.items) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if v >= z.items { // guard the float boundary
		v = z.items - 1
	}
	return v
}

// For a fixed item count, rank(k/2^53) is a step function of the 53-bit
// integer k a draw consumes, so a rankTable answers it from cut points.
// Each cut is certified on the formula itself (rank at cut-1 below r, at
// cut at least r), and the table answers only for k at least guard away
// from every cut and from both ends of the range; nearer draws evaluate
// the formula. The Pow base eta·u−eta+1 rounds monotonically in k, and
// across the band it moves by at least 2^10 of its ulps (minTableEta;
// items ≤ 2 have no Pow-branch cut), which moves the result by far more
// than Pow's error, so the table is exact without relying on Pow being
// monotone. A draw lands in a band with probability items·2^-32.
const (
	maxTableItems = 1 << guideBits // the guide's resolution
	guideBits     = 12
	guideBuckets  = 1 << guideBits
	guideShift    = 53 - guideBits
	guard         = 1 << 20
	drawSpan      = 1 << 53
	minTableEta   = 0x1p-10
)

// rankTable is one allocation behind one pointer, so a Zipfian without
// one carries only a nil pointer.
type rankTable struct {
	// guide[b] is the rank at k = b<<guideShift: a draw scans forward
	// from it, a few cuts at most.
	guide [guideBuckets]uint16
	// cut[r] is where rank r begins; cut[items] = 2^53 ends the range.
	cut [maxTableItems + 1]uint64
}

// newRankTable tabulates z's formula, or returns nil where the formula
// answers: past the guide's resolution, where the Pow base would not move
// across a band, and for one item (every draw is rank 0 without a Pow, and
// Latest starts there only to grow) or a range so wide its count wrapped.
func newRankTable(z *Zipfian) *rankTable {
	n := z.items
	if n < 2 || n > maxTableItems || (n > 2 && z.eta < minTableEta) {
		return nil
	}
	t := new(rankTable)
	for r := int64(1); r < n; r++ {
		t.cut[r] = uint64(z.findCut(r, int64(t.cut[r-1])))
	}
	t.cut[n] = drawSpan
	r := 0
	for b := range t.guide {
		for t.cut[r+1] <= uint64(b)<<guideShift {
			r++
		}
		t.guide[b] = uint16(r)
	}
	return t
}

// rankAt is the formula at the 53-bit draw k, extended past both ends of
// the range: below every rank at k < 0, at every rank at k = 2^53.
func (z *Zipfian) rankAt(k int64) int64 {
	switch {
	case k < 0:
		return -1
	case k >= drawSpan:
		return z.items
	}
	return z.rank(float64(k) / drawSpan)
}

// findCut returns a k with rankAt(k-1) < r <= rankAt(k), given prev, the
// cut of rank r-1. It starts from the closed-form inverse of the formula
// at r, gallops until it brackets the step, and bisects: a handful of
// formula evaluations where plain bisection over 2^53 takes 53.
func (z *Zipfian) findCut(r, prev int64) int64 {
	var u float64
	switch r {
	case 1:
		u = 1 / z.zetan
	case 2:
		u = z.rank1 / z.zetan
	default:
		u = 1 + (math.Pow(float64(r)/float64(z.items), 1-z.theta)-1)/z.eta
	}
	lo := prev - 1 // rankAt(prev-1) < r-1
	seed := lo + 1
	if u > 0 { // false for NaN too
		seed = max(seed, int64(min(u, 1)*drawSpan))
	}
	var hi int64
	if z.rankAt(seed) >= r {
		hi = seed
		for step := int64(1); ; step *= 2 {
			c := max(hi-step, lo)
			if z.rankAt(c) < r {
				lo = c
				break
			}
			hi = c
		}
	} else {
		lo = seed
		for step := int64(1); ; step *= 2 {
			c := min(lo+step, drawSpan)
			if z.rankAt(c) >= r {
				hi = c
				break
			}
			lo = c
		}
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if z.rankAt(mid) >= r {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// Last returns the most recent draw.
func (z *Zipfian) Last() int64 { return z.last }

// scrambledSpace is the fixed underlying item space a scrambled zipfian
// hashes down from (YCSB uses the same trick): drawing ranks from one
// large constant-size zipfian and folding them into the live domain
// keeps the set of hot keys stable as the domain grows, and scatters
// them across the keyspace instead of clustering at low keys.
const scrambledSpace = int64(10_000_000_000)

// zetanScrambledSpace is ζ(scrambledSpace, 0.99), precomputed — the
// series converges far too slowly to sum at construction time.
const zetanScrambledSpace = 26.46902820178302

// ScrambledZipfian draws zipfian-popular values scattered uniformly over
// [min, min+itemCount) by FNV-hashing the underlying rank.
type ScrambledZipfian struct {
	z         Zipfian
	min       int64
	itemCount int64
	last      int64
}

// NewScrambledZipfian returns a scrambled zipfian over [min, max] at the
// standard θ=0.99 skew.
func NewScrambledZipfian(rng *rand.Rand, min, max int64) (*ScrambledZipfian, error) {
	if max < min {
		return nil, fmt.Errorf("generator: scrambled-zipfian range [%d, %d] inverted", min, max)
	}
	s := &ScrambledZipfian{min: min, itemCount: max - min + 1}
	s.z = Zipfian{
		rng: rng, base: 0, items: scrambledSpace, theta: ZipfianConstant,
		alpha: 1 / (1 - ZipfianConstant),
		rank1: rank1Threshold(ZipfianConstant),
		zeta2: zeta(0, 2, ZipfianConstant, 0),
		zetan: zetanScrambledSpace, countForZeta: scrambledSpace,
	}
	s.z.eta = s.z.computeEta()
	return s, nil
}

// ForItems resizes the hash target domain to n values (the underlying
// rank space is fixed, so this is O(1)).
func (s *ScrambledZipfian) ForItems(n int64) {
	s.itemCount = n
}

// Next draws the next scattered value.
func (s *ScrambledZipfian) Next() int64 {
	v := s.z.Next()
	s.last = s.min + int64(FNVHash64(uint64(v))%uint64(s.itemCount))
	return s.last
}

// Last returns the most recent draw.
func (s *ScrambledZipfian) Last() int64 { return s.last }

// FNVHash64 is the 64-bit FNV-1 hash YCSB scatters zipfian ranks with.
func FNVHash64(v uint64) uint64 {
	const (
		offset = 0xCBF29CE484222325
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h *= prime
		h ^= v & 0xff
		v >>= 8
	}
	return h
}

// Latest skews draws toward the most recently inserted values of a
// growing sequence: the newest value is the hottest, with zipfian
// fall-off into the past. The counter is shared with the inserting
// routines (an AcknowledgedCounter, so only completed inserts are ever
// selected).
type Latest struct {
	z       Zipfian
	counter Generator // usually *AcknowledgedCounter; Last() is the newest key
	last    int64
}

// NewLatest returns a latest-skewed generator following counter.
func NewLatest(rng *rand.Rand, counter Generator) (*Latest, error) {
	if counter == nil {
		return nil, fmt.Errorf("generator: latest needs a counter")
	}
	z, err := NewZipfian(rng, 0, 0, ZipfianConstant)
	if err != nil {
		return nil, err
	}
	return &Latest{z: *z, counter: counter}, nil
}

// Next draws a recent value: counter.Last() - zipfian rank.
func (l *Latest) Next() int64 {
	max := l.counter.Last()
	if max < 0 { // nothing acknowledged yet
		max = 0
	}
	l.z.ForItems(max + 1)
	l.last = max - l.z.Next()
	return l.last
}

// Last returns the most recent draw.
func (l *Latest) Last() int64 { return l.last }
