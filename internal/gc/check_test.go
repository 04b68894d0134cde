package gc

import (
	"errors"
	"testing"

	"nvmgc/internal/check"
	"nvmgc/internal/heap"
)

// TestCheckedCollectionsPass runs the option matrix with the phase-boundary
// invariant checker enabled: a correct collector must pass every boundary
// (pre-gc, post-read-mostly, post-write-only, post-gc) on every cycle.
func TestCheckedCollectionsPass(t *testing.T) {
	opts := map[string]Options{
		"vanilla":    Vanilla(),
		"writecache": WithWriteCache(),
		"all":        Optimized(),
		"async":      {WriteCache: true, NonTemporal: true, HeaderMap: true, Prefetch: true, AsyncFlush: true},
		"hm-low":     {HeaderMap: true, HeaderMapMinThreads: 1},
		"tiny-map":   {HeaderMap: true, HeaderMapMinThreads: 1, HeaderMapBytes: 2 << 10},
	}
	for name, opt := range opts {
		opt.Check = true
		t.Run("g1/"+name, func(t *testing.T) {
			h, m := testEnv(t)
			populate(t, h, m, defaultSpec())
			g, err := NewG1(h, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				collectAndVerify(t, h, g, 8)
				spec := defaultSpec()
				spec.objects = 1500
				spec.seed = uint64(i + 2)
				populate(t, h, m, spec)
			}
		})
	}
	t.Run("ps/all", func(t *testing.T) {
		opt := Optimized()
		opt.Check = true
		h, m := testEnv(t)
		populate(t, h, m, defaultSpec())
		p, err := NewPS(h, opt)
		if err != nil {
			t.Fatal(err)
		}
		collectAndVerify(t, h, p, 8)
	})
}

// TestCheckedMixedAndFullPass covers the other two of G1's three
// algorithms under the checker (old regions join the collection set, so
// the cset-parse and remset rules see mixed/full shapes too).
func TestCheckedMixedAndFullPass(t *testing.T) {
	opt := Optimized()
	opt.Check = true
	h, m := testEnv(t)
	populate(t, h, m, defaultSpec())
	g, err := NewG1(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		collectAndVerify(t, h, g, 8) // age objects into old space
		spec := defaultSpec()
		spec.objects = 1200
		spec.seed = uint64(i + 11)
		populate(t, h, m, spec)
	}
	before := liveGraph(t, h)
	if _, err := g.CollectMixed(8, 4); err != nil {
		t.Fatalf("checked mixed GC: %v", err)
	}
	if _, err := g.CollectFull(8); err != nil {
		t.Fatalf("checked full GC: %v", err)
	}
	if err := graphDiff(t, h, before); err != nil {
		t.Fatalf("graph changed: %v", err)
	}
}

// TestCheckedPersistPass runs the checker together with crash-consistency
// journaling: the PostGC boundary then also asserts that no survivor/old
// or journal line is still dirty after the commit record.
func TestCheckedPersistPass(t *testing.T) {
	for _, mode := range []Persistence{PersistADR, PersistEADR} {
		t.Run(mode.String(), func(t *testing.T) {
			opt := Optimized()
			opt.Persist = mode
			opt.Check = true
			h, _, g, _ := crashEnv(t, crashConfig{name: "checked", opt: opt})
			collectAndVerify(t, h, g, 8)
		})
	}
}

// TestCheckIsFree asserts the accounting contract: enabling Options.Check
// must not change a single virtual-time or traffic figure.
func TestCheckIsFree(t *testing.T) {
	run := func(chk bool) CollectionStats {
		h, m := testEnv(t)
		populate(t, h, m, defaultSpec())
		opt := Optimized()
		opt.Check = chk
		g, err := NewG1(h, opt)
		if err != nil {
			t.Fatal(err)
		}
		s, err := g.Collect(8)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	plain, checked := run(false), run(true)
	if plain.Pause != checked.Pause || plain.NVM != checked.NVM || plain.DRAM != checked.DRAM {
		t.Fatalf("Options.Check changed figures:\n  off %+v\n  on  %+v", plain, checked)
	}
}

// wantViolation asserts err wraps a *check.Violation with the given rule.
func wantViolation(t *testing.T, err error, rule string) {
	t.Helper()
	if err == nil {
		t.Fatalf("corruption not detected (want rule %q)", rule)
	}
	var v *check.Violation
	if !errors.As(err, &v) {
		t.Fatalf("error %v is not a check.Violation", err)
	}
	if v.Rule != rule {
		t.Fatalf("violated rule %q (%v), want %q", v.Rule, v, rule)
	}
}

// TestCheckDetectsCorruption plants one deliberate heap corruption per
// rule family and asserts the next checked collection names that rule.
func TestCheckDetectsCorruption(t *testing.T) {
	setup := func(t *testing.T) (*heap.Heap, *G1) {
		h, m := testEnv(t)
		populate(t, h, m, defaultSpec())
		opt := Optimized()
		opt.Check = true
		g, err := NewG1(h, opt)
		if err != nil {
			t.Fatal(err)
		}
		// One clean cycle so survivors and old objects exist.
		collectAndVerify(t, h, g, 8)
		return h, g
	}

	t.Run("region-parse", func(t *testing.T) {
		h, g := setup(t)
		r := h.Survivors()[0]
		h.Poke(heap.InfoAddr(r.Start), heap.MakeInfo(9999, 4)) // undefined klass
		_, err := g.Collect(8)
		wantViolation(t, err, "region-parse")
	})

	t.Run("no-stale-forwarding", func(t *testing.T) {
		h, g := setup(t)
		r := h.Survivors()[0]
		h.Poke(heap.MarkAddr(r.Start), heap.ForwardedMark(r.Start))
		_, err := g.Collect(8)
		wantViolation(t, err, "no-stale-forwarding")
	})

	t.Run("remset-superset", func(t *testing.T) {
		h, g := setup(t)
		// Find an old object with a ref slot and point it at a survivor
		// object with a raw Poke, bypassing the write barrier.
		var slot heap.Address
		for _, r := range h.Old() {
			for a := r.Start; a < r.Top; {
				k, size := h.PeekObject(a)
				if k == nil {
					t.Fatal("old region unparseable")
				}
				for off := int64(heap.HeaderWords); off < size; off++ {
					if k.IsRefSlot(off, size) && slot == 0 {
						slot = heap.SlotAddr(a, off)
					}
				}
				a += heap.Address(size) * heap.WordBytes
			}
		}
		if slot == 0 {
			t.Skip("no old ref slot in this layout")
		}
		h.Poke(slot, h.Survivors()[0].Start)
		_, err := g.Collect(8)
		wantViolation(t, err, "remset-superset")
	})

	t.Run("remset-slots", func(t *testing.T) {
		h, g := setup(t)
		// Remember a slot living in a survivor region: the write barrier
		// only records old-space (or root-area) slots.
		sr := h.Survivors()[0]
		sr.RemSet.Add(sr.Start + 8*heap.WordBytes)
		_, err := g.Collect(8)
		wantViolation(t, err, "remset-slots")
	})

	t.Run("headermap-clear", func(t *testing.T) {
		h, g := setup(t)
		hm := g.HeaderMap()
		if hm == nil {
			t.Fatal("no header map")
		}
		h.Poke(hm.keyAddr(3), 0xbeef) // stale entry after ClearStripe
		_, err := g.Collect(8)
		wantViolation(t, err, "headermap-clear")
	})

	t.Run("region-bounds", func(t *testing.T) {
		h, g := setup(t)
		r := h.Survivors()[0]
		r.Top = r.End + heap.WordBytes
		_, err := g.Collect(8)
		wantViolation(t, err, "region-bounds")
	})

	t.Run("reachable-refs", func(t *testing.T) {
		h, g := setup(t)
		// Point a live ref slot at unallocated free space.
		var victim heap.Address
		h.Roots.ForEach(func(s heap.Address) {
			if victim == 0 && h.Peek(s) != 0 {
				victim = s
			}
		})
		if victim == 0 {
			t.Fatal("no live root")
		}
		free := h.Regions()[h.FreeHeapRegionIndices()[0]]
		h.Poke(victim, free.Start+64)
		_, err := g.Collect(8)
		// The dangling root is caught either by the reachability walk or
		// by the remset/parse rules, depending on where it lands; the walk
		// sees it first.
		wantViolation(t, err, "reachable-refs")
	})
}

// TestCheckBoundaryDirect exercises AtBoundary through the collector's
// helper on a quiescent heap, covering the PostGC/committed path without a
// full persist cycle.
func TestCheckBoundaryDirect(t *testing.T) {
	h, m := testEnv(t)
	populate(t, h, m, defaultSpec())
	g, err := NewG1(h, Vanilla())
	if err != nil {
		t.Fatal(err)
	}
	for _, bd := range []check.Boundary{check.PreGC, check.PostGC} {
		if err := g.checkBoundary(bd, false); err != nil {
			t.Fatalf("%v on a quiescent heap: %v", bd, err)
		}
	}
	// Mid-phase boundaries must reject a heap that is not in collection.
	for _, bd := range []check.Boundary{check.PostReadMostly, check.PostWriteOnly} {
		wantViolation(t, g.checkBoundary(bd, false), "gc-state")
	}
}
