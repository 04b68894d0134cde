package gc

import (
	"testing"

	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

// buildOldHeavyHeap fills eden, promotes part of it via two young GCs,
// then drops some roots so the old space holds garbage a full GC can
// reclaim. It returns the collector and the number of dropped roots.
func buildOldHeavyHeap(t *testing.T, opt Options) (*heap.Heap, *G1) {
	t.Helper()
	h, m := testEnv(t)
	node, _ := h.Klasses.Define("node", 6, []int32{2, 3})
	var slots []heap.Address
	m.Run(1, func(w *memsim.Worker) {
		for i := 0; i < 3000; i++ {
			a, ok := h.AllocateEden(w, node, 6)
			if !ok {
				break
			}
			h.Poke(heap.SlotAddr(a, 4), uint64(i))
			if i%2 == 0 {
				slot, ok := h.Roots.Add(w, a)
				if ok {
					slots = append(slots, slot)
				}
			}
		}
	})
	g, err := NewG1(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Two young GCs promote the rooted objects to the old generation.
	collectAndVerify(t, h, g, 4)
	collectAndVerify(t, h, g, 4)
	if len(h.Old()) == 0 {
		t.Fatal("setup failed to promote anything")
	}
	// Drop two thirds of the roots: the old space is now fragmented with
	// garbage only a full GC can reclaim.
	m.Run(1, func(w *memsim.Worker) {
		for i, s := range slots {
			if i%3 != 0 {
				h.Roots.Clear(w, s)
			}
		}
	})
	return h, g
}

func TestFullGCPreservesGraphAndCompacts(t *testing.T) {
	h, g := buildOldHeavyHeap(t, Vanilla())
	oldBytes := func() int64 {
		var n int64
		for _, r := range h.Old() {
			n += r.UsedBytes()
		}
		return n
	}
	oldBefore := oldBytes()
	sig := liveGraph(t, h)

	s, err := g.CollectFull(8)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Full {
		t.Fatal("stats not flagged as full GC")
	}
	if err := graphDiff(t, h, sig); err != nil {
		t.Fatalf("full GC corrupted the graph: %v", err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := oldBytes(); got >= oldBefore {
		t.Fatalf("full GC should compact the old space: %d -> %d bytes", oldBefore, got)
	}
	if s.ObjectsCopied == 0 || s.ObjectsPromoted == 0 {
		t.Fatalf("full GC stats: %+v", s)
	}
}

func TestFullGCWithOptimizations(t *testing.T) {
	opt := Optimized()
	opt.HeaderMapMinThreads = 1
	h, g := buildOldHeavyHeap(t, opt)
	sig := liveGraph(t, h)
	if _, err := g.CollectFull(8); err != nil {
		t.Fatal(err)
	}
	if err := graphDiff(t, h, sig); err != nil {
		t.Fatalf("graph changed: %v", err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if h.FreeCacheRegions() != h.Config().CacheRegions {
		t.Fatal("cache regions leaked by full GC")
	}
}

func TestFullGCRebuildsRemSets(t *testing.T) {
	// After a full GC, a subsequent young GC must still see old->young
	// edges (remsets are rebuilt during the full collection).
	h, g := buildOldHeavyHeap(t, Vanilla())
	m := h.Machine()
	node := h.Klasses.ByName("node")

	// Give a surviving old object a young child.
	var parent heap.Address
	h.Roots.ForEach(func(slot heap.Address) {
		if parent == 0 {
			if r := h.RegionOf(h.Peek(slot)); r != nil && r.Kind == heap.RegionOld {
				parent = h.Peek(slot)
			}
		}
	})
	if parent == 0 {
		t.Fatal("no old root found")
	}
	m.Run(1, func(w *memsim.Worker) {
		child, ok := h.AllocateEden(w, node, 6)
		if !ok {
			t.Error("allocation failed")
			return
		}
		h.Poke(heap.SlotAddr(child, 4), 777)
		h.SetRef(w, parent, 2, child)
	})
	sig := liveGraph(t, h)

	if _, err := g.CollectFull(8); err != nil {
		t.Fatal(err)
	}
	// The child survived the full GC (it was young, now in a survivor
	// region) and the parent moved; a young GC must keep the edge alive.
	if _, err := g.Collect(8); err != nil {
		t.Fatal(err)
	}
	if err := graphDiff(t, h, sig); err != nil {
		t.Fatalf("old->young edge lost across full+young GC: %v", err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFullGCOnPS(t *testing.T) {
	h, m := testEnv(t)
	populate(t, h, m, defaultSpec())
	p, _ := NewPS(h, Optimized())
	collectAndVerify(t, h, p, 8)
	sig := liveGraph(t, h)
	if _, err := p.CollectFull(8); err != nil {
		t.Fatal(err)
	}
	if err := graphDiff(t, h, sig); err != nil {
		t.Fatalf("PS full GC corrupted the graph: %v", err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFullGCEmptyHeap(t *testing.T) {
	h, _ := testEnv(t)
	g, _ := NewG1(h, Vanilla())
	s, err := g.CollectFull(4)
	if err != nil {
		t.Fatal(err)
	}
	if s.ObjectsCopied != 0 {
		t.Fatalf("empty full GC copied %d objects", s.ObjectsCopied)
	}
}
