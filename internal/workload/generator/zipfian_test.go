package generator

import (
	"math/rand/v2"
	"testing"
)

// scriptSource is a rand.Source that replays a fixed list of raw draws.
type scriptSource struct {
	ks []uint64
	i  int
}

func (s *scriptSource) Uint64() uint64 {
	k := s.ks[s.i]
	s.i++
	return k
}

// formulaAt is the published formula's rank at the 53-bit draw k.
func formulaAt(z *Zipfian, k uint64) int64 {
	return unhoistedRank(z, float64(k)/drawSpan)
}

// TestZipfianTableMatchesFormula holds the rank table to the formula at
// three skews and five sizes: every cut is certified (the formula's rank
// is below r just before it and at least r at it), draws scripted to land
// on both sides of every guard-band edge match the formula through Next,
// and so does a long seeded stream.
func TestZipfianTableMatchesFormula(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 100_000
	}
	for _, theta := range []float64{0.01, 0.5, ZipfianConstant} {
		for _, items := range []int64{2, 3, 256, 1000, 4096} {
			z, err := NewZipfian(NewRand(3, 5), 0, items-1, theta)
			if err != nil {
				t.Fatal(err)
			}
			tab := z.table
			if tab == nil {
				t.Fatalf("theta %g, %d items: no rank table", theta, items)
			}
			if tab.cut[0] != 0 || tab.cut[items] != drawSpan {
				t.Fatalf("theta %g, %d items: range ends at cuts %d and %d", theta, items, tab.cut[0], tab.cut[items])
			}
			for r := int64(1); r < items; r++ {
				c := tab.cut[r]
				if c == 0 || c >= drawSpan || formulaAt(z, c-1) >= r || formulaAt(z, c) < r {
					t.Fatalf("theta %g, %d items: cut %d of rank %d is not certified", theta, items, c, r)
				}
			}

			var script []uint64
			for r := int64(0); r <= items; r++ {
				for _, off := range []int64{-guard - 1, -guard, -1, 0, guard - 1, guard} {
					if k := int64(tab.cut[r]) + off; k >= 0 && k < drawSpan {
						script = append(script, uint64(k))
					}
				}
			}
			z.rng = rand.New(&scriptSource{ks: script})
			ref, _ := NewZipfian(rand.New(&scriptSource{ks: script}), 0, items-1, theta)
			for i, k := range script {
				if g, r := z.Next(), nextUnhoisted(ref); g != r {
					t.Fatalf("theta %g, %d items: scripted k %d (draw %d): Next %d, formula %d", theta, items, k, i, g, r)
				}
			}

			z.rng, ref.rng = NewRand(9, uint64(items)), NewRand(9, uint64(items))
			for i := 0; i < draws; i++ {
				if g, r := z.Next(), nextUnhoisted(ref); g != r {
					t.Fatalf("theta %g, %d items, draw %d: Next %d, formula %d", theta, items, i, g, r)
				}
			}
		}
	}

	// At θ 5e-05 the topmost draw over two items rounds uz up to the rank-2
	// threshold and takes the Pow branch, where eta is 0/0: the band at the
	// range's end is what hands that draw to the formula.
	top := []uint64{drawSpan - 1}
	two, _ := NewZipfian(rand.New(&scriptSource{ks: top}), 0, 1, 5e-05)
	ref, _ := NewZipfian(rand.New(&scriptSource{ks: top}), 0, 1, 5e-05)
	if g, r := two.Next(), nextUnhoisted(ref); two.table == nil || g != r {
		t.Fatalf("two items at theta 5e-05, k = 2^53-1: Next %d, formula %d", g, r)
	}

	// No table past the guide's resolution, where the Pow base would not
	// move across a guard band, for one item (Latest's start), or after a
	// resize.
	big, _ := NewZipfian(NewRand(1, 1), 0, maxTableItems, ZipfianConstant)
	flat, _ := NewZipfian(NewRand(1, 1), 0, 2, 0.99999)
	one, _ := NewZipfian(NewRand(1, 1), 0, 0, ZipfianConstant)
	resized, _ := NewZipfian(NewRand(1, 1), 0, 255, ZipfianConstant)
	resized.ForItems(512)
	resized.ForItems(256)
	if big.table != nil || flat.table != nil || one.table != nil || resized.table != nil {
		t.Fatal("table kept where the formula must answer")
	}
}

// TestZipfianTopDrawInRange scripts the lowest and topmost draws, and two
// between, over one and two items, from NewZipfian (a rank table for two)
// and after ForItems (no table, Latest's path), at skews from 5e-05 to
// 0.99999: every draw is a rank of the range, the lowest its first and
// the topmost its last. At θ 5e-05 over two items ζ(2,θ) exceeds the
// rank-1 threshold by an ulp, and the top draw used to take the Pow
// branch, where eta is 0/0: base+int64(NaN), MinInt64 on amd64.
func TestZipfianTopDrawInRange(t *testing.T) {
	ks := []uint64{0, drawSpan / 2, drawSpan - 2, drawSpan - 1}
	const base = 10
	for _, theta := range []float64{5e-05, 0.01, 0.5, ZipfianConstant, 0.99999} {
		for _, items := range []int64{1, 2} {
			for _, resized := range []bool{false, true} {
				top := base + items - 1
				if resized {
					top = base
				}
				z, err := NewZipfian(rand.New(&scriptSource{ks: ks}), base, top, theta)
				if err != nil {
					t.Fatal(err)
				}
				z.ForItems(items)
				for i, k := range ks {
					got := z.Next()
					bad := got < base || got >= base+items
					bad = bad || (i == 0 && got != base) || (i == len(ks)-1 && got != base+items-1)
					if bad {
						t.Errorf("theta %g, %d items (resized %v), k %#x: Next %d, want a rank in [%d, %d]",
							theta, items, resized, k, got, base, base+items-1)
					}
				}
			}
		}
	}
}

// FuzzZipfianTable requires a table-backed Next to equal the published
// formula over a stream of raw draws, and to stay inside the range: for
// items 1..4096 at any skew in (0, 1), it alternates a seeded uniform
// draw with one placed within two guard bands of a cut (the range's ends
// included).
func FuzzZipfianTable(f *testing.F) {
	f.Add(int64(256), ZipfianConstant, uint64(1))
	f.Add(int64(4096), ZipfianConstant, uint64(2))
	f.Add(int64(2), 0.7, uint64(3))
	f.Add(int64(3), ZipfianConstant, uint64(4))
	f.Add(int64(1), 0.5, uint64(5))
	f.Add(int64(1000), 0.01, uint64(6))
	f.Fuzz(func(t *testing.T, items int64, theta float64, seed uint64) {
		if !(theta > 0 && theta < 1) {
			t.Skip("theta outside (0, 1)")
		}
		items = 1 + (items%maxTableItems+maxTableItems)%maxTableItems
		z, err := NewZipfian(NewRand(1, 1), 0, items-1, theta)
		if err != nil {
			t.Fatal(err)
		}
		cuts := []uint64{0, drawSpan}
		if z.table != nil {
			cuts = z.table.cut[:items+1]
		}
		src := NewRand(seed, 0)
		stream := make([]uint64, 2000)
		for i := range stream {
			stream[i] = src.Uint64()
			if i%2 == 1 {
				k := int64(cuts[src.IntN(len(cuts))]) + src.Int64N(4*guard) - 2*guard
				stream[i] = uint64(min(max(k, 0), drawSpan-1))
			}
		}
		z.rng = rand.New(&scriptSource{ks: stream})
		ref, _ := NewZipfian(rand.New(&scriptSource{ks: stream}), 0, items-1, theta)
		for i, k := range stream {
			g, r := z.Next(), nextUnhoisted(ref)
			if g != r {
				t.Fatalf("theta %g, %d items, raw draw %#x (%d): Next %d, formula %d", theta, items, k, i, g, r)
			}
			if g < 0 || g >= items {
				t.Fatalf("theta %g, %d items, raw draw %#x (%d): Next %d outside the range", theta, items, k, i, g)
			}
		}
	})
}

// BenchmarkZipfianNext times one draw at θ 0.99 from the rank table (256
// items, the fleet's tenant count) and from the formula (2^20 items).
func BenchmarkZipfianNext(b *testing.B) {
	for _, bc := range []struct {
		name  string
		items int64
	}{{"table-256", 256}, {"formula-1M", 1 << 20}} {
		b.Run(bc.name, func(b *testing.B) {
			z, err := NewZipfian(NewRand(1, 1), 0, bc.items-1, ZipfianConstant)
			if err != nil {
				b.Fatal(err)
			}
			var sum int64
			for i := 0; i < b.N; i++ {
				sum += z.Next()
			}
			if sum < 0 {
				b.Fatal(sum)
			}
		})
	}
}
