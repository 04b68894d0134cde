package gc

import (
	"testing"

	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

func TestMarkLiveness(t *testing.T) {
	h, m := testEnv(t)
	node, _ := h.Klasses.Define("node", 6, []int32{2, 3})
	var live, dead heap.Address
	m.Run(1, func(w *memsim.Worker) {
		live, _ = h.AllocateOld(w, node, 6)
		dead, _ = h.AllocateOld(w, node, 6)
		h.Roots.Add(w, live)
	})
	g, _ := NewG1(h, Vanilla())
	lv := g.MarkLiveness()
	if lv.Objects != 1 {
		t.Fatalf("marked %d objects, want 1", lv.Objects)
	}
	r := h.RegionOf(live)
	if lv.LiveBytes[r.Index] != 48 {
		t.Fatalf("live bytes = %d", lv.LiveBytes[r.Index])
	}
	// The region holds 96 used bytes of which 48 are live.
	if f := lv.LiveFraction(r); f != 0.5 {
		t.Fatalf("live fraction = %v", f)
	}
	if lv.Duration <= 0 {
		t.Fatal("marking should take time")
	}
	_ = dead
}

func TestMixedGCReclaimsOldGarbage(t *testing.T) {
	h, g := buildOldHeavyHeap(t, Vanilla())
	oldBytes := func() int64 {
		var n int64
		for _, r := range h.Old() {
			n += r.UsedBytes()
		}
		return n
	}
	before := oldBytes()
	sig := liveGraph(t, h)

	s, err := g.CollectMixed(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Mixed || s.Full {
		t.Fatalf("stats flags: %+v", s)
	}
	if s.MarkTime <= 0 {
		t.Fatal("mark time missing")
	}
	if err := graphDiff(t, h, sig); err != nil {
		t.Fatalf("mixed GC corrupted the graph: %v", err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := oldBytes(); got >= before {
		t.Fatalf("mixed GC should shrink the old space: %d -> %d bytes", before, got)
	}
	// Young GCs keep working afterwards.
	collectAndVerify(t, h, g, 8)
	if err := graphDiff(t, h, sig); err != nil {
		t.Fatalf("young GC after mixed GC corrupted the graph: %v", err)
	}
}

func TestMixedGCKeepsOldToOldEdges(t *testing.T) {
	// A surviving old object A referencing old object B in an evacuated
	// region: B must move and A's field must be updated via B's region
	// remset.
	h, m := testEnv(t)
	node, _ := h.Klasses.Define("node", 6, []int32{2, 3})
	var a, b heap.Address
	m.Run(1, func(w *memsim.Worker) {
		a, _ = h.AllocateOld(w, node, 6)
		h.Roots.Add(w, a)
		// Force b into a different region: fill the current one.
		ra := h.RegionOf(a)
		for {
			x, ok := h.AllocateOld(w, node, 6)
			if !ok {
				t.Error("heap full during setup")
				return
			}
			if h.RegionOf(x) != ra {
				b = x
				break
			}
		}
		h.Poke(heap.SlotAddr(b, 4), 31337)
		h.SetRef(w, a, 2, b) // old->old, cross-region: barrier records it
		h.Roots.Add(w, b)    // keep b's region's other content irrelevant
	})
	rb := h.RegionOf(b)
	if rb.RemSet.Len() == 0 {
		t.Fatal("write barrier did not record the old->old edge")
	}
	g, _ := NewG1(h, Vanilla())
	sig := liveGraph(t, h)
	// Evacuate as many old regions as possible: b's region is nearly
	// empty (mostly garbage), so it is a prime candidate.
	if _, err := g.CollectMixed(4, 64); err != nil {
		t.Fatal(err)
	}
	if err := graphDiff(t, h, sig); err != nil {
		t.Fatalf("graph changed: %v", err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Follow the edge through the (possibly moved) a.
	newA := h.Peek(h.Roots.Slots()[0])
	newB := h.Peek(heap.SlotAddr(newA, 2))
	if h.Peek(heap.SlotAddr(newB, 4)) != 31337 {
		t.Fatal("old->old edge lost or stale after mixed GC")
	}
}

func TestMixedGCSkipsDenseRegions(t *testing.T) {
	// Old regions that are almost fully live are not worth evacuating:
	// with everything rooted, a mixed GC should copy (almost) nothing
	// from the old space.
	h, m := testEnv(t)
	node, _ := h.Klasses.Define("node", 6, []int32{2, 3})
	m.Run(1, func(w *memsim.Worker) {
		for i := 0; i < 500; i++ {
			a, ok := h.AllocateOld(w, node, 6)
			if !ok {
				break
			}
			if _, ok := h.Roots.Add(w, a); !ok {
				break
			}
		}
	})
	g, _ := NewG1(h, Vanilla())
	s, err := g.CollectMixed(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if s.ObjectsPromoted != 0 {
		t.Fatalf("dense old regions should not be evacuated, moved %d objects", s.ObjectsPromoted)
	}
}

func TestMixedGCRepeatedCyclesStayHealthy(t *testing.T) {
	// Interleave young and mixed collections with ongoing mutation; the
	// remset scrubbing must keep stale slots from ever being read.
	h, m := testEnv(t)
	populate(t, h, m, defaultSpec())
	opt := Optimized()
	opt.HeaderMapMinThreads = 1
	g, _ := NewG1(h, opt)
	for round := 0; round < 4; round++ {
		collectAndVerify(t, h, g, 8)
		spec := defaultSpec()
		spec.objects = 1200
		spec.seed = uint64(100 + round)
		populate(t, h, m, spec)
		before := liveGraph(t, h)
		if _, err := g.CollectMixed(8, 8); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := graphDiff(t, h, before); err != nil {
			t.Fatalf("round %d: mixed GC corrupted the graph: %v", round, err)
		}
		if err := h.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}
