package gc

import (
	"testing"

	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

// buildBigAndSmall allocates a mix of small nodes and arrays larger than
// the PS direct-copy threshold, all rooted.
func buildBigAndSmall(t *testing.T) (*heap.Heap, int, int) {
	t.Helper()
	h, m := testEnv(t)
	node, _ := h.Klasses.Define("node", 6, []int32{2, 3})
	arr, _ := h.Klasses.DefineArray("prim[]", false)
	small, big := 0, 0
	m.Run(1, func(w *memsim.Worker) {
		for i := 0; i < 400; i++ {
			var a heap.Address
			var ok bool
			if i%4 == 0 {
				a, ok = h.AllocateEden(w, arr, 200) // 1600B >= 1KiB threshold
				big++
			} else {
				a, ok = h.AllocateEden(w, node, 6)
				small++
			}
			if !ok {
				break
			}
			h.Roots.Add(w, a)
		}
	})
	return h, small, big
}

func TestPSDirectCopiesBypassTheCache(t *testing.T) {
	h, _, big := buildBigAndSmall(t)
	opt := WithWriteCache()
	opt.WriteCacheBytes = -1 // ample: fallback can't explain direct bytes
	p, err := NewPS(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	s := collectAndVerify(t, h, p, 4)
	// Large arrays are copied directly to NVM: with an unlimited budget
	// the only uncached bytes are the direct path's.
	wantAtLeast := int64(big) * 200 * heap.WordBytes / 2
	if s.CacheFallbackBytes < wantAtLeast {
		t.Fatalf("direct copies = %d bytes, want >= %d (PS's irregular copying)",
			s.CacheFallbackBytes, wantAtLeast)
	}
	if s.CacheRegionsUsed == 0 {
		t.Fatal("small objects should still flow through cached LABs")
	}
}

func TestPSLABGapsAreFilled(t *testing.T) {
	// After a PS collection, survivor regions must parse into contiguous
	// objects even though LABs leave tails — the filler objects plug
	// them. CheckInvariants walks every region object-by-object, so a
	// missing filler fails loudly.
	h, _, _ := buildBigAndSmall(t)
	p, _ := NewPS(h, Vanilla())
	collectAndVerify(t, h, p, 8)
	fillers := 0
	for _, r := range h.Survivors() {
		for a := r.Start; a < r.Top; {
			k, size := h.PeekObject(a)
			if k == nil {
				t.Fatalf("survivor region %d: malformed at %#x", r.Index, a)
			}
			if k == h.Klasses.ByName("<filler>") {
				fillers++
			}
			a += heap.Address(size) * heap.WordBytes
		}
	}
	if fillers == 0 {
		t.Fatal("expected at least one LAB-tail filler with 8 workers")
	}
}

func TestPSVanillaDoesNotPrefetch(t *testing.T) {
	run := func(ps bool) int64 {
		h, _, _ := buildBigAndSmall(t)
		var col Collector
		if ps {
			col, _ = NewPS(h, Vanilla())
		} else {
			col, _ = NewG1(h, Vanilla())
		}
		if _, err := col.Collect(4); err != nil {
			t.Fatal(err)
		}
		return h.Machine().LLC.Stats().PrefetchPromotions
	}
	if got := run(true); got != 0 {
		t.Fatalf("vanilla PS must not prefetch, saw %d promotions", got)
	}
	if got := run(false); got == 0 {
		t.Fatal("vanilla G1 should prefetch referents")
	}
}

func TestBFSTraversalOrder(t *testing.T) {
	// With BFS, a worker draining a fan-out processes siblings before
	// grandchildren; the workStack take() order differs from DFS.
	var s workStack
	s.push(1)
	s.push(2)
	if v, _ := s.take(false); v != 2 {
		t.Fatal("DFS should pop the newest")
	}
	s.push(3)
	if v, _ := s.take(true); v != 1 {
		t.Fatal("BFS should take the oldest")
	}
}
