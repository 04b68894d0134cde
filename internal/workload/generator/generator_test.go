package generator

import (
	"math"
	"testing"
)

// Goodness-of-fit tests: every generator is deterministic from its
// seed, so these are exact regression tests, not flaky statistical
// ones — the sampled statistic is the same on every run, and the bounds
// are classical chi-squared / relative-error acceptance thresholds.

func TestUniformRangeAndDeterminism(t *testing.T) {
	a, err := NewUniform(NewRand(7, 1), 10, 19)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewUniform(NewRand(7, 1), 10, 19)
	counts := make([]int, 10)
	for i := 0; i < 100_000; i++ {
		v := a.Next()
		if v != b.Next() {
			t.Fatal("same seed diverged")
		}
		if v < 10 || v > 19 {
			t.Fatalf("draw %d outside [10, 19]", v)
		}
		counts[v-10]++
		if a.Last() != v {
			t.Fatal("Last() does not track Next()")
		}
	}
	// Chi-squared against uniform expectation, df = 9: 27.9 is p=0.001.
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - 10_000
		chi2 += d * d / 10_000
	}
	if chi2 > 27.9 {
		t.Fatalf("uniform chi2 = %.1f, want < 27.9", chi2)
	}
	if _, err := NewUniform(NewRand(1, 1), 5, 4); err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestZipfianMatchesClosedForm(t *testing.T) {
	const items, theta, draws = 50, ZipfianConstant, 500_000
	z, err := NewZipfian(NewRand(11, 2), 0, items-1, theta)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, items)
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	zetan := zeta(0, items, theta, 0)
	// Ranks 0 and 1 are drawn by exact inverse-CDF cases in Gray's
	// construction — hold them to sampling error.
	p0 := float64(counts[0]) / draws
	if want := 1 / zetan; math.Abs(p0-want)/want > 0.02 {
		t.Fatalf("p(rank 0) = %.4f, closed form %.4f", p0, want)
	}
	p1 := float64(counts[1]) / draws
	if want := math.Pow(0.5, theta) / zetan; math.Abs(p1-want)/want > 0.02 {
		t.Fatalf("p(rank 1) = %.4f, closed form %.4f", p1, want)
	}
	// The tail is Gray's continuous approximation of the discrete CDF, so
	// a chi-squared against the exact law diverges with draw count by
	// design; bound the total-variation distance instead. Measured TVD at
	// this seed is ~1.7% — the approximation's intrinsic error, not
	// sampling noise.
	tvd := 0.0
	for i, c := range counts {
		exp := 1 / math.Pow(float64(i+1), theta) / zetan
		tvd += math.Abs(float64(c)/draws - exp)
	}
	if tvd /= 2; tvd > 0.03 {
		t.Fatalf("zipfian total-variation distance %.4f, want < 0.03", tvd)
	}
	// Popularity must fall monotonically across the head ranks.
	for i := 1; i < 5; i++ {
		if counts[i] >= counts[i-1] {
			t.Fatalf("rank %d drawn %d >= rank %d drawn %d", i, counts[i], i-1, counts[i-1])
		}
	}
}

func TestZipfianIncrementalZetaMatchesScratch(t *testing.T) {
	grown, _ := NewZipfian(NewRand(1, 1), 0, 9, ZipfianConstant)
	for n := int64(11); n <= 400; n += 13 {
		grown.ForItems(n) // extends the running sum term-by-term
		scratch, _ := NewZipfian(NewRand(1, 1), 0, n-1, ZipfianConstant)
		if math.Abs(grown.zetan-scratch.zetan) > 1e-9 {
			t.Fatalf("items %d: incremental zetan %.12f != scratch %.12f", n, grown.zetan, scratch.zetan)
		}
	}
	grown.ForItems(20) // shrink recomputes
	scratch, _ := NewZipfian(NewRand(1, 1), 0, 19, ZipfianConstant)
	if math.Abs(grown.zetan-scratch.zetan) > 1e-9 {
		t.Fatal("shrink did not recompute zetan")
	}
}

func TestScrambledZipfianScattersHotKeys(t *testing.T) {
	const items, draws = 1000, 300_000
	s, err := NewScrambledZipfian(NewRand(3, 4), 0, items-1)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, items)
	for i := 0; i < draws; i++ {
		v := s.Next()
		if v < 0 || v >= items {
			t.Fatalf("draw %d outside domain", v)
		}
		counts[v]++
	}
	// Still zipfian-popular: the top key far exceeds the uniform share...
	max, maxAt := 0, 0
	for i, c := range counts {
		if c > max {
			max, maxAt = c, i
		}
	}
	if max < 10*draws/items {
		t.Fatalf("hottest key drawn %d times, want clear skew over uniform %d", max, draws/items)
	}
	// ...but scattered: the hottest keys must not cluster at low ids
	// (plain zipfian would pin rank 0 there).
	if maxAt < items/20 {
		t.Fatalf("hottest key at id %d — looks unscrambled", maxAt)
	}
	// Stable hot set as the domain grows: the same underlying rank keeps
	// hashing to the same key when itemCount is unchanged.
	a, _ := NewScrambledZipfian(NewRand(9, 9), 0, items-1)
	b, _ := NewScrambledZipfian(NewRand(9, 9), 0, items-1)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestHotspotSplitMatchesConfig(t *testing.T) {
	const lb, ub, draws = 0, 999, 400_000
	const hotsetFrac, hotOpnFrac = 0.2, 0.8
	h, err := NewHotspot(NewRand(5, 6), lb, ub, hotsetFrac, hotOpnFrac)
	if err != nil {
		t.Fatal(err)
	}
	hotLimit := int64(float64(ub-lb+1) * hotsetFrac)
	hot := 0
	hotCounts := make([]int, hotLimit)
	for i := 0; i < draws; i++ {
		v := h.Next()
		if v < lb || v > ub {
			t.Fatalf("draw %d outside [%d, %d]", v, lb, ub)
		}
		if v < lb+hotLimit {
			hot++
			hotCounts[v-lb]++
		}
	}
	if frac := float64(hot) / draws; math.Abs(frac-hotOpnFrac) > 0.01 {
		t.Fatalf("hot-set share %.4f, configured %.2f", frac, hotOpnFrac)
	}
	// Inside the hot set the draws are uniform: chi-squared with df = 199
	// (249 is p=0.01).
	exp := hotOpnFrac * draws / float64(hotLimit)
	chi2 := 0.0
	for _, c := range hotCounts {
		d := float64(c) - exp
		chi2 += d * d / exp
	}
	if chi2 > 249 {
		t.Fatalf("hot-set uniformity chi2 = %.1f, want < 249", chi2)
	}
	if _, err := NewHotspot(NewRand(1, 1), 0, 9, 1.5, 0.5); err == nil {
		t.Fatal("hotsetFrac > 1 accepted")
	}
}

func TestExponentialMeanAndPercentile(t *testing.T) {
	const percentile, rang, frac, draws = 95.0, 8000.0, 0.12, 400_000
	e, err := NewExponential(NewRand(13, 8), percentile, rang, frac)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	within := 0
	for i := 0; i < draws; i++ {
		v := float64(e.Next())
		sum += v
		if v < rang*frac {
			within++
		}
	}
	if mean, want := sum/draws, 1/e.gamma; math.Abs(mean-want)/want > 0.02 {
		t.Fatalf("sample mean %.1f, closed form %.1f", mean, want)
	}
	// By construction, `percentile` percent of draws land within rang*frac.
	if got := 100 * float64(within) / draws; math.Abs(got-percentile) > 0.5 {
		t.Fatalf("%.2f%% of draws within range, configured %.0f%%", got, percentile)
	}
	if _, err := NewExponential(NewRand(1, 1), 100, 10, 0.5); err == nil {
		t.Fatal("percentile 100 accepted")
	}
}

func TestLatestFollowsCounter(t *testing.T) {
	c := NewAcknowledgedCounter(0)
	l, err := NewLatest(NewRand(17, 3), c)
	if err != nil {
		t.Fatal(err)
	}
	if v := l.Next(); v != 0 {
		t.Fatalf("draw before any ack = %d, want 0", v)
	}
	for i := 0; i < 1000; i++ {
		c.Acknowledge(c.Next())
	}
	newest := 0
	for i := 0; i < 50_000; i++ {
		v := l.Next()
		if v < 0 || v > c.Last() {
			t.Fatalf("draw %d outside [0, %d]", v, c.Last())
		}
		if v == c.Last() {
			newest++
		}
	}
	// The newest value is rank 0 of a θ=0.99 zipfian over 1000 items:
	// ~1/ζ(1000) ≈ 13% of draws.
	if frac := float64(newest) / 50_000; frac < 0.10 || frac > 0.17 {
		t.Fatalf("newest-value share %.3f, want ~0.13", frac)
	}
}

func TestAcknowledgedCounterFrontier(t *testing.T) {
	a := NewAcknowledgedCounter(0)
	if a.Last() != -1 {
		t.Fatalf("initial frontier %d, want -1", a.Last())
	}
	v0, v1, v2 := a.Next(), a.Next(), a.Next()
	if v0 != 0 || v1 != 1 || v2 != 2 {
		t.Fatalf("hand-out sequence %d,%d,%d", v0, v1, v2)
	}
	// Out-of-order acks only advance the contiguous frontier.
	if !a.Acknowledge(v2) || a.Last() != -1 {
		t.Fatalf("frontier after ack(2) = %d, want -1", a.Last())
	}
	if !a.Acknowledge(v0) || a.Last() != 0 {
		t.Fatalf("frontier after ack(0) = %d, want 0", a.Last())
	}
	if !a.Acknowledge(v1) || a.Last() != 2 {
		t.Fatalf("frontier after ack(1) = %d, want 2 (contiguous run)", a.Last())
	}
	if a.Acknowledge(v1) {
		t.Fatal("double-ack accepted")
	}
	if a.Acknowledge(3 + ackWindow) {
		t.Fatal("ack beyond the window accepted")
	}
}

func TestFNVHash64KnownValues(t *testing.T) {
	// Spot-check the scatter hash: distinct inputs, stable outputs.
	seen := map[uint64]bool{}
	for v := uint64(0); v < 10_000; v++ {
		h := FNVHash64(v)
		if seen[h] {
			t.Fatalf("collision at %d", v)
		}
		seen[h] = true
	}
	if FNVHash64(0) == 0 || FNVHash64(1) == FNVHash64(2) {
		t.Fatal("degenerate hash")
	}
}

func TestGeneratorSurface(t *testing.T) {
	// Last() on every generator tracks the most recent draw.
	u, _ := NewUniform(NewRand(1, 1), 0, 9)
	u.SetRange(100, 109)
	if v := u.Next(); v < 100 || v > 109 || u.Last() != v {
		t.Fatalf("uniform after SetRange: %d (last %d)", v, u.Last())
	}
	z, _ := NewZipfian(NewRand(1, 2), 0, 9, ZipfianConstant)
	if z.items != 10 {
		t.Fatalf("items = %d", z.items)
	}
	if v := z.Next(); z.Last() != v {
		t.Fatal("zipfian Last() stale")
	}
	s, _ := NewScrambledZipfian(NewRand(1, 3), 0, 9)
	s.ForItems(5)
	if v := s.Next(); v < 0 || v >= 5 || s.Last() != v {
		t.Fatalf("scrambled after ForItems(5): %d (last %d)", v, s.Last())
	}
	h, _ := NewHotspot(NewRand(1, 4), 0, 9, 0.2, 0.8)
	if v := h.Next(); h.Last() != v {
		t.Fatal("hotspot Last() stale")
	}
	h.SetRange(0, 1) // hot interval clamps to 1, cold absorbs the rest
	if v := h.Next(); v < 0 || v > 1 {
		t.Fatalf("hotspot after tiny SetRange: %d", v)
	}
	e, _ := NewExponential(NewRand(1, 5), 95, 100, 0.5)
	if v := e.Next(); e.Last() != v {
		t.Fatal("exponential Last() stale")
	}
	c := NewAcknowledgedCounter(0)
	l, _ := NewLatest(NewRand(1, 7), c)
	if v := l.Next(); l.Last() != v {
		t.Fatal("latest Last() stale")
	}

	// Constructor error branches.
	if _, err := NewZipfian(NewRand(1, 1), 5, 4, ZipfianConstant); err == nil {
		t.Fatal("inverted zipfian range accepted")
	}
	if _, err := NewZipfian(NewRand(1, 1), 0, 9, 1.5); err == nil {
		t.Fatal("theta 1.5 accepted")
	}
	if _, err := NewScrambledZipfian(NewRand(1, 1), 5, 4); err == nil {
		t.Fatal("inverted scrambled range accepted")
	}
	if _, err := NewHotspot(NewRand(1, 1), 5, 4, 0.2, 0.8); err == nil {
		t.Fatal("inverted hotspot range accepted")
	}
	if _, err := NewExponential(NewRand(1, 1), 95, 0, 0.5); err == nil {
		t.Fatal("zero exponential range accepted")
	}
	if _, err := NewLatest(NewRand(1, 1), nil); err == nil {
		t.Fatal("nil counter accepted")
	}
}

func TestGeneratorsAllocationFree(t *testing.T) {
	z, _ := NewZipfian(NewRand(1, 1), 0, 999, ZipfianConstant)
	h, _ := NewHotspot(NewRand(1, 2), 0, 999, 0.2, 0.8)
	s, _ := NewScrambledZipfian(NewRand(1, 3), 0, 999)
	if n := testing.AllocsPerRun(1000, func() {
		z.Next()
		h.Next()
		s.Next()
		z.ForItems(1000) // no-op resize must not allocate either
	}); n != 0 {
		t.Fatalf("steady-state Next allocates %.1f times per op", n)
	}
}

// nextUnhoisted is Zipfian.Next with Gray's formula as published: the
// rank-1 threshold 1 + 0.5^θ is recomputed on every draw, and there is no
// rank table. It is the reference Next's hoisted threshold and table are
// held to. Its one addition to the formula is rank's: up to two items,
// a draw at or past the rank-1 threshold is rank 1, never the Pow
// branch's int64(NaN).
func nextUnhoisted(z *Zipfian) int64 {
	z.last = z.base + unhoistedRank(z, z.rng.Float64())
	return z.last
}

// unhoistedRank is nextUnhoisted's rank for the uniform draw u.
func unhoistedRank(z *Zipfian, u float64) int64 {
	uz := u * z.zetan
	var v int64
	switch {
	case uz < 1:
		v = 0
	case uz < 1+math.Pow(0.5, z.theta) || z.items <= 2:
		v = 1
	default:
		v = int64(float64(z.items) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if v >= z.items {
		v = z.items - 1
	}
	return v
}

// TestZipfianDrawsMatchUnhoistedFormula replays two generators built
// from one seed, one through Next and one through nextUnhoisted, and
// demands the same draw every time: for Zipfian at two skews and four
// sizes, across ForItems growth and shrink (which must leave the
// threshold alone), and for the two generators that embed a Zipfian.
func TestZipfianDrawsMatchUnhoistedFormula(t *testing.T) {
	const draws = 20_000
	sizes := []int64{2, 3, 256, 4096, 1_000_000}
	for _, theta := range []float64{0.5, ZipfianConstant} {
		for _, items := range sizes {
			got, err := NewZipfian(NewRand(5, 9), 10, 10+items-1, theta)
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := NewZipfian(NewRand(5, 9), 10, 10+items-1, theta)
			// Draw, grow, draw, shrink below the start, draw.
			for _, resize := range []int64{0, items + 777, max(items/2, 1)} {
				if resize > 0 {
					got.ForItems(resize)
					ref.ForItems(resize)
				}
				for i := 0; i < draws; i++ {
					if g, r := got.Next(), nextUnhoisted(ref); g != r {
						t.Fatalf("theta %g, %d items (resized to %d), draw %d: Next %d, unhoisted formula %d",
							theta, items, resize, i, g, r)
					}
				}
			}
		}
	}

	for _, items := range sizes {
		got, err := NewScrambledZipfian(NewRand(6, 9), 0, items-1)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := NewScrambledZipfian(NewRand(6, 9), 0, items-1)
		for _, resize := range []int64{0, items + 777, max(items/2, 1)} {
			if resize > 0 {
				got.ForItems(resize)
				ref.ForItems(resize)
			}
			for i := 0; i < draws; i++ {
				r := ref.min + int64(FNVHash64(uint64(nextUnhoisted(&ref.z)))%uint64(ref.itemCount))
				if g := got.Next(); g != r {
					t.Fatalf("scrambled, %d items (resized to %d), draw %d: Next %d, unhoisted formula %d", items, resize, i, g, r)
				}
			}
		}
	}

	// Latest resizes its zipfian to the counter on every draw: the
	// population grows by one key every third draw, from empty.
	cg, cr := NewAcknowledgedCounter(0), NewAcknowledgedCounter(0)
	got, err := NewLatest(NewRand(7, 9), cg)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := NewLatest(NewRand(7, 9), cr)
	for i := 0; i < draws; i++ {
		if i%3 == 0 {
			cg.Acknowledge(cg.Next())
			cr.Acknowledge(cr.Next())
		}
		newest := max(cr.Last(), 0)
		ref.z.ForItems(newest + 1)
		r := newest - nextUnhoisted(&ref.z)
		if g := got.Next(); g != r {
			t.Fatalf("latest, draw %d over %d keys: Next %d, unhoisted formula %d", i, newest+1, g, r)
		}
	}
}
