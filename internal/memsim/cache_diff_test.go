package memsim

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"
)

// evictRec is one onEvict callback: which of the side's two devices, and
// the line address.
type evictRec struct {
	dev  int
	addr uint64
}

// diffSide is one cache under differential test with its own device pair
// (Device.access mutates channel state, so the sides cannot share).
type diffSide struct {
	devs   [2]*Device
	evicts []evictRec
}

func newDiffSide() *diffSide {
	return &diffSide{devs: [2]*Device{
		NewDevice("dram", DRAMProfile(), 0), NewDevice("nvm", OptaneProfile(), 0)}}
}

func (s *diffSide) onEvict(dev *Device, lineAddr uint64) {
	i := 0
	if dev == s.devs[1] {
		i = 1
	}
	s.evicts = append(s.evicts, evictRec{i, lineAddr})
}

// inFlight normalises a reported ready time: callers only ever compare it
// with a time at or after now, so every value <= now means "usable" and
// the cache may report any of them (it reports 0 once now has passed the
// last prefetch; the reference model reports the stale transfer time).
func inFlight(ready, now Time) Time {
	if ready > now {
		return ready
	}
	return 0
}

// TestCacheMatchesReferenceModel drives the stamp-word cache and the
// array-of-structs reference (cache_ref_test.go) with the same seeded
// random operation stream — over a million operations in all — and
// requires identical return values, counters, device traffic and onEvict
// sequence. The stream has two devices aliasing the same addresses, runs
// of equal now (LRU ties within and across calls), occasional steps back
// in time, and an address space four times the cache so that every set
// churns.
func TestCacheMatchesReferenceModel(t *testing.T) {
	ops := 210_000
	if testing.Short() {
		ops = 30_000
	}
	// A 16-way set runs scan16 on an AVX2 host; assoc=16-portable forces
	// the portable scan there too.
	type geometry struct {
		assoc    int
		portable bool
	}
	for _, g := range []geometry{{1, false}, {2, false}, {3, false}, {16, false}, {16, true}, {17, false}} {
		assoc, name := g.assoc, fmt.Sprintf("assoc=%d", g.assoc)
		if g.portable {
			name += "-portable"
		}
		t.Run(name, func(t *testing.T) {
			const sets = 32
			capacity := int64(sets * assoc * LineSize)
			got, want := newDiffSide(), newDiffSide()
			c := newCacheKernel(capacity, assoc, !g.portable)
			r := newRefCache(capacity, assoc, 15)
			c.onEvict, r.onEvict = got.onEvict, want.onEvict
			rng := rand.New(rand.NewPCG(uint64(assoc), 0xcafe))
			// Addresses reach the top bit of the key's 40-bit line field.
			const floor = 1<<45 | 1<<32
			space := uint64(4 * capacity)
			now := Time(0)
			for i := 0; i < ops; i++ {
				switch rng.IntN(8) {
				case 0, 1, 2: // equal-now tie with the previous operation
				case 3:
					now -= Time(rng.IntN(50)) // non-monotone
					now = max(now, 0)
				default:
					now += Time(rng.IntN(40))
				}
				d := rng.IntN(2)
				addr := floor + rng.Uint64N(space)
				n := int64(rng.IntN(6*LineSize)) - 8 // sometimes empty
				write, seq := rng.IntN(3) == 0, rng.IntN(2) == 0
				fail := func(what string, g, w any) {
					t.Helper()
					t.Fatalf("op %d (%s dev=%d addr=%#x n=%d now=%d write=%v seq=%v): got %v, reference %v",
						i, what, d, addr, n, now, write, seq, g, w)
				}
				switch op := rng.IntN(16); {
				case op < 5:
					line := addr &^ (LineSize - 1)
					gh, gr := c.touchLine(got.devs[d], line, now, write, seq)
					wh, wr := r.touchLine(want.devs[d], line, now, write, seq)
					if gh != wh || inFlight(gr, now) != inFlight(wr, now) {
						fail("touchLine", fmt.Sprint(gh, gr), fmt.Sprint(wh, wr))
					}
				case op < 10:
					gm, gr := c.touchRange(got.devs[d], addr, n, now, write, seq)
					wm, wr := r.touchRange(want.devs[d], addr, n, now, write, seq)
					if gm != wm || inFlight(gr, now) != inFlight(wr, now) {
						fail("touchRange", fmt.Sprint(gm, gr), fmt.Sprint(wm, wr))
					}
				case op < 12:
					gm := c.missingLines(got.devs[d], addr, n)
					if wm := r.missingLines(want.devs[d], addr, n); gm != wm {
						fail("missingLines", gm, wm)
					}
					readyAt := now + Time(rng.IntN(400))
					c.installPrefetch(got.devs[d], addr, n, now, readyAt)
					r.installPrefetch(want.devs[d], addr, n, now, readyAt)
				case op < 14:
					line := addr &^ (LineSize - 1)
					gd := c.cleanLine(got.devs[d], line)
					if wd := r.cleanLine(want.devs[d], line); gd != wd {
						fail("cleanLine", gd, wd)
					}
				default:
					c.invalidateRange(got.devs[d], addr, n)
					r.invalidateRange(want.devs[d], addr, n)
				}
				if len(got.evicts) != len(want.evicts) ||
					(len(got.evicts) > 0 && got.evicts[len(got.evicts)-1] != want.evicts[len(want.evicts)-1]) {
					fail("onEvict", got.evicts[max(len(got.evicts)-3, 0):], want.evicts[max(len(want.evicts)-3, 0):])
				}
				// The counting filter holds one count per staged line (so it
				// is all zero when nothing is staged: counts do not go
				// negative, a wrapped one would add 256).
				staged := 0
				for _, n := range c.pbufFilter {
					staged += int(n)
				}
				if staged != len(c.pbufIdx) {
					fail("pbufFilter", staged, len(c.pbufIdx))
				}
			}
			if g, w := c.Stats(), r.Stats(); g != w {
				t.Fatalf("CacheStats: got %+v, reference %+v", g, w)
			}
			for d := range got.devs {
				if g, w := got.devs[d].Stats(), want.devs[d].Stats(); g != w {
					t.Fatalf("DeviceStats[%d]: got %+v, reference %+v", d, g, w)
				}
				// Same resident set at the end, line by line.
				for a := uint64(floor); a < floor+space; a += LineSize {
					if g, w := c.missingLines(got.devs[d], a, 1), r.missingLines(want.devs[d], a, 1); g != w {
						t.Fatalf("dev %d line %#x: missing %d, reference %d", d, a, g, w)
					}
				}
			}
			s := c.Stats()
			if s.Writebacks == 0 || s.PrefetchPromotions == 0 || s.PrefetchOverwrites == 0 || len(got.evicts) == 0 {
				t.Fatalf("stream left a path cold: %+v, %d evict callbacks", s, len(got.evicts))
			}
		})
	}
}

// newCacheKernel builds a cache that uses the set-scan kernel only if
// kernel is true and the host has it.
func newCacheKernel(capacity int64, assoc int, kernel bool) *Cache {
	defer func(on bool) { scanKernel = on }(scanKernel)
	scanKernel = scanKernel && kernel
	return NewCache(capacity, assoc, 15)
}

// scanCase is one set of TestScanKernelMatchesLoop and the key it probes.
type scanCase struct {
	keys, stamps [16]uint64
	key          uint64
}

// scanCases draws n seeded random 16-way sets as the cache holds them:
// keys with device ids up to 4 and line-address bit 45 set at random,
// stamps (now+1)<<8|way up to the 2^55 horizon, and invalid ways (key 0,
// stamp = way). Each probe hits one way (every way in turn), hits two
// ways (planted twice: the lowest must win), or misses.
func scanCases(n int) []scanCase {
	rng := rand.New(rand.NewPCG(16, 0x5ca9))
	cases := make([]scanCase, n)
	for i := range cases {
		sc := &cases[i]
		for w := range sc.keys {
			if rng.IntN(8) == 0 {
				sc.stamps[w] = uint64(w)
				continue
			}
			sc.keys[w] = (1+rng.Uint64N(4))<<40 | rng.Uint64N(2)<<39 | rng.Uint64N(1<<39)
			now := rng.Uint64N(uint64(maxTime) + 1)
			switch rng.IntN(4) {
			case 0:
				now = uint64(maxTime) // 2^55-2, the last instant a stamp holds
			case 1:
				now = rng.Uint64N(64) // near-ties at the bottom
			}
			sc.stamps[w] = (now+1)<<8 | uint64(w)
		}
		switch k := i % 18; {
		case k < 16:
			sc.key = 1<<40 | 1<<39 | uint64(i)
			sc.keys[k], sc.stamps[k] = sc.key, uint64(i+1)<<8|uint64(k)
		case k == 16:
			a, b := rng.IntN(16), rng.IntN(16)
			sc.key = 4<<40 | 1<<39 | uint64(i)
			sc.keys[a], sc.keys[b] = sc.key, sc.key
		default:
			sc.key = 5<<40 | uint64(i) // no way holds device 5
		}
	}
	return cases
}

// TestScanKernelMatchesLoop holds scan16 to scanSet bit for bit on seeded
// random sets (see scanCases). A kernel that returns the highest matching
// way, or whose min-tree drops one 4-stamp lane, fails it.
func TestScanKernelMatchesLoop(t *testing.T) {
	if !scanKernel {
		t.Skip("host has no set-scan kernel")
	}
	for i, sc := range scanCases(100_000) {
		gw, gl := scan16(&sc.keys[0], &sc.stamps[0], sc.key)
		ww, wl := scanSet(sc.keys[:], sc.stamps[:], sc.key)
		if gw != ww || gl != wl {
			t.Fatalf("case %d: scan16 = (%d, %#x), scanSet = (%d, %#x)\nkeys %#x\nstamps %#x key %#x",
				i, gw, gl, ww, wl, sc.keys, sc.stamps, sc.key)
		}
	}
}

// wayOf returns the way holding a line in its set, or -1.
func wayOf(c *Cache, d *Device, lineAddr uint64) int {
	line := lineAddr / LineSize
	w, _ := c.find(int(line&c.setMask)*c.assoc, line, lineKey(d, lineAddr))
	return w
}

func TestVictimOrder(t *testing.T) {
	d := NewDevice("nvm", OptaneProfile(), 0)
	const stride = LineSize // one set: consecutive lines share it
	t.Run("invalidated ways refill lowest first", func(t *testing.T) {
		c := NewCache(4*LineSize, 4, 15)
		for i := uint64(0); i < 4; i++ {
			c.touchLine(d, i*stride, Time(10+i), true, false)
		}
		c.invalidateRange(d, 2*stride, LineSize)
		c.invalidateRange(d, 1*stride, LineSize)
		for i, want := range []int{1, 2} {
			addr := uint64(10+i) * stride
			c.touchLine(d, addr, 20, false, false)
			if got := wayOf(c, d, addr); got != want {
				t.Fatalf("refill %d landed in way %d, want %d", i, got, want)
			}
		}
		if c.Stats().Writebacks != 0 {
			t.Fatal("refilling an invalidated dirty way must not write back")
		}
		// Set full again: way 0 (lastUse 10) is now the LRU.
		c.touchLine(d, 12*stride, 21, false, false)
		if wayOf(c, d, 0) != -1 || wayOf(c, d, 12*stride) != 0 {
			t.Fatal("full set must evict the least recently used way")
		}
	})
	t.Run("equal lastUse evicts the lowest way", func(t *testing.T) {
		for _, assoc := range []int{2, 3, 16, 17, 256} {
			c := NewCache(int64(assoc)*LineSize, assoc, 15)
			for i := 0; i < assoc; i++ {
				c.touchLine(d, uint64(i)*stride, 5, false, false)
			}
			for i := 0; i < assoc; i++ { // every victim ties at lastUse 5
				addr := uint64(assoc+i) * stride
				c.touchLine(d, addr, 6, false, false)
				if got := wayOf(c, d, addr); got != i {
					t.Fatalf("assoc %d: eviction %d took way %d", assoc, i, got)
				}
			}
		}
	})
}

func TestCacheBounds(t *testing.T) {
	d := NewDevice("nvm", OptaneProfile(), 0)
	if c := NewCache(1<<20, 1000, 15); c.assoc != maxAssoc || c.numSets*c.assoc*LineSize != 1<<20 {
		t.Fatalf("assoc 1000 gave %d ways, %d sets; want a clamp to %d", c.assoc, c.numSets, maxAssoc)
	}
	if c := NewCache(1<<20, -3, 15); c.assoc != 1 {
		t.Fatalf("assoc -3 gave %d ways", c.assoc)
	}
	// The stamp packing holds up to the last representable instant,
	// lastUse+1 = 2^55-1: such a line is still younger than any other and
	// an invalid way still wins over it.
	const last = maxTime
	c := NewCache(3*LineSize, 3, 15)
	c.touchLine(d, 0*LineSize, last, false, false)
	c.touchLine(d, 1*LineSize, last-1, false, false)
	c.touchLine(d, 2*LineSize, 0, false, false)
	c.invalidateRange(d, 2*LineSize, 1)
	c.touchLine(d, 3*LineSize, last, false, false) // takes the invalid way 2
	c.touchLine(d, 4*LineSize, last, false, false) // evicts way 1 (last-1)
	if wayOf(c, d, 0) != 0 || wayOf(c, d, 3*LineSize) != 2 || wayOf(c, d, 4*LineSize) != 1 {
		t.Fatalf("ways at the time horizon: %d %d %d, want 0 2 1",
			wayOf(c, d, 0), wayOf(c, d, 3*LineSize), wayOf(c, d, 4*LineSize))
	}
}

// TestClockHorizon: a phase may end on the last instant the packed
// scheduling key and LLC stamp can hold, and one nanosecond later Run
// refuses the result instead of returning numbers from a wrapped word.
func TestClockHorizon(t *testing.T) {
	cfg := testConfig()
	cfg.TraceBucket = 0 // a bandwidth trace keeps a bucket per 250 us since time 0
	for _, workers := range []int{1, 3} {
		m := NewMachine(cfg)
		m.Run(workers, func(w *Worker) {
			w.Advance(maxTime - 10*Microsecond - w.Now())
			w.Read(m.NVM, uint64(w.ID())<<20, 64, false)
			w.Advance(maxTime - w.Now())
		})
		if m.Now() != 1<<55-2 {
			t.Fatalf("workers=%d: phase ended at %d, want 2^55-2", workers, m.Now())
		}
		func() {
			defer func() {
				want := fmt.Sprintf("memsim: virtual clock %d ns past the 2^55 ns horizon", int64(1)<<55-1)
				if r := recover(); r != want {
					t.Fatalf("workers=%d: one Advance past the horizon: recovered %v, want %q", workers, r, want)
				}
			}()
			m.Run(workers, func(w *Worker) { w.Advance(1) })
		}()
	}
}

// TestMinStamp checks the victim search folded into find: a probe that
// misses a set returns its least stamp, whatever the associativity, and
// one that hits returns the way holding the key.
func TestMinStamp(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for n := 1; n <= maxAssoc; n++ {
		c := NewCache(int64(n)*LineSize, n, 15)
		for round := 0; round < 20; round++ {
			want := uint64(1<<64 - 1)
			for i := range c.stamp {
				c.keys[i] = uint64(i) + 1
				c.stamp[i] = rng.Uint64() >> (1 + rng.UintN(56))
				want = min(want, c.stamp[i])
			}
			line := rng.Uint64()
			c.pred[line&c.predMask] = uint8(rng.UintN(uint(n)))
			if w, got := c.find(0, line, 0); w != -1 || got != want {
				t.Fatalf("assoc %d: find of an absent key = (%d, %d), want (-1, %d)", n, w, got, want)
			}
			k := int(rng.UintN(uint(n)))
			if w, _ := c.find(0, line, uint64(k)+1); w != k {
				t.Fatalf("assoc %d: find of way %d's key = %d", n, k, w)
			}
		}
	}
}

// TestNewCacheAllocs pins the cost of one LLC on the default geometry: no
// more allocations than the array-of-structs layout made (the struct, two
// slabs and the prefetch index: 7), and 41 bytes a line — three words, the
// flags byte and predPerLine = 16 predictor bytes — where that layout spent
// 48 (797,982 B in all). The device table must not allocate for the usual
// two to four tiers.
func TestNewCacheAllocs(t *testing.T) {
	cfg := DefaultConfig()
	var c *Cache
	if n := testing.AllocsPerRun(20, func() { c = NewCache(cfg.LLCBytes, cfg.LLCAssoc, cfg.LLCHitLatency) }); n > 7 {
		t.Errorf("NewCache: %v allocations, want <= 7", n)
	}
	const rounds = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		c = NewCache(cfg.LLCBytes, cfg.LLCAssoc, cfg.LLCHitLatency)
	}
	runtime.ReadMemStats(&after)
	lines := cfg.LLCBytes / LineSize
	if got, limit := int64(after.TotalAlloc-before.TotalAlloc)/rounds, 41*lines+16<<10; got > limit {
		t.Errorf("NewCache: %d bytes, want <= %d", got, limit)
	}
	var devs [4]*Device
	for i := range devs {
		devs[i] = NewDevice("tier", OptaneProfile(), 0)
	}
	if n := testing.AllocsPerRun(20, func() {
		for i, d := range devs {
			c.touchLine(d, uint64(i)*LineSize, 0, true, false)
		}
	}); n != 0 {
		t.Errorf("touching four devices allocated %v times", n)
	}
}
