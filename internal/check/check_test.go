package check

import (
	"errors"
	"strings"
	"testing"

	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

func testHeap(t testing.TB) (*heap.Heap, *memsim.Machine) {
	t.Helper()
	m := memsim.NewMachine(memsim.DefaultConfig())
	hc := heap.DefaultConfig()
	hc.RegionBytes = 16 << 10
	hc.HeapRegions = 64
	hc.CacheRegions = 8
	hc.EdenRegions = 16
	hc.SurvivorRegions = 8
	hc.AuxBytes = 1 << 20
	hc.RootSlots = 256
	h, err := heap.New(m, hc)
	if err != nil {
		t.Fatal(err)
	}
	return h, m
}

// buildGraph allocates a small graph: root -> a -> b, root -> arr, with a
// payload word on each node, and returns the addresses.
func buildGraph(t testing.TB, h *heap.Heap, m *memsim.Machine, payload uint64) (a, b, arr heap.Address) {
	t.Helper()
	node := h.Klasses.ByName("node")
	if node == nil {
		var err error
		node, err = h.Klasses.Define("node", 6, []int32{2, 3})
		if err != nil {
			t.Fatal(err)
		}
	}
	prim := h.Klasses.ByName("prim[]")
	if prim == nil {
		var err error
		prim, err = h.Klasses.DefineArray("prim[]", false)
		if err != nil {
			t.Fatal(err)
		}
	}
	m.Run(1, func(w *memsim.Worker) {
		b, _ = h.AllocateEden(w, node, 6)
		h.Poke(heap.SlotAddr(b, 4), payload)
		a, _ = h.AllocateEden(w, node, 6)
		h.SetRefInit(w, a, 2, b)
		arr, _ = h.AllocateEden(w, prim, 8)
		h.Poke(heap.SlotAddr(arr, 3), payload+1)
		h.Roots.Add(w, a)
		h.Roots.Add(w, arr)
	})
	return a, b, arr
}

func TestCaptureAndDiffIdentical(t *testing.T) {
	h1, m1 := testHeap(t)
	buildGraph(t, h1, m1, 42)
	h2, m2 := testHeap(t)
	buildGraph(t, h2, m2, 42)

	s1, err := Capture(h1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Capture(h2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Diff(s1, s2); err != nil {
		t.Fatalf("identical graphs differ: %v", err)
	}
	if len(s1.Objects) != 3 || len(s1.Roots) != 2 {
		t.Fatalf("snapshot shape: %+v", s1)
	}
	if got := s1.Summary(); !strings.Contains(got, "2 roots, 3 objects") {
		t.Fatalf("summary: %q", got)
	}
}

func TestDiffNamesFirstDifference(t *testing.T) {
	h1, m1 := testHeap(t)
	buildGraph(t, h1, m1, 42)
	ref, err := Capture(h1)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("payload", func(t *testing.T) {
		h2, m2 := testHeap(t)
		_, b, _ := buildGraph(t, h2, m2, 42)
		h2.Poke(heap.SlotAddr(b, 4), 43)
		got, err := Capture(h2)
		if err != nil {
			t.Fatal(err)
		}
		derr := Diff(got, ref)
		if derr == nil || !strings.Contains(derr.Error(), "payload word") {
			t.Fatalf("diff = %v", derr)
		}
	})

	t.Run("edge", func(t *testing.T) {
		// Keep b alive via its own root in both heaps so severing a->b
		// changes an edge, not the object count.
		build := func(sever bool) *Snapshot {
			h2, m2 := testHeap(t)
			a, b, _ := buildGraph(t, h2, m2, 42)
			m2.Run(1, func(w *memsim.Worker) { h2.Roots.Add(w, b) })
			if sever {
				h2.Poke(heap.SlotAddr(a, 2), 0) // raw: test-only
			}
			s, err := Capture(h2)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		derr := Diff(build(true), build(false))
		if derr == nil || !strings.Contains(derr.Error(), "ref slot") {
			t.Fatalf("diff = %v", derr)
		}
	})

	t.Run("object-count", func(t *testing.T) {
		h2, m2 := testHeap(t)
		buildGraph(t, h2, m2, 42)
		buildGraph(t, h2, m2, 7) // extra component
		got, err := Capture(h2)
		if err != nil {
			t.Fatal(err)
		}
		derr := Diff(got, ref)
		if derr == nil || !strings.Contains(derr.Error(), "roots") {
			t.Fatalf("diff = %v", derr)
		}
	})
}

func TestCaptureRejectsCorruption(t *testing.T) {
	h, m := testHeap(t)
	a, _, _ := buildGraph(t, h, m, 42)
	h.Poke(heap.MarkAddr(a), heap.ForwardedMark(a))
	if _, err := Capture(h); err == nil || !strings.Contains(err.Error(), "forwarding") {
		t.Fatalf("capture on forwarded object: %v", err)
	}
	h.Poke(heap.MarkAddr(a), 0)
	h.Poke(heap.InfoAddr(a), heap.MakeInfo(999, 6))
	if _, err := Capture(h); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("capture on malformed object: %v", err)
	}
}

func TestViolationFormatting(t *testing.T) {
	v := &Violation{Boundary: PostReadMostly, Rule: "writecache-mapping", Detail: "boom"}
	want := "check[post-read-mostly/writecache-mapping]: boom"
	if v.Error() != want {
		t.Fatalf("Error() = %q, want %q", v.Error(), want)
	}
	for b := PreGC; b <= PostGC; b++ {
		if strings.HasPrefix(b.String(), "Boundary(") {
			t.Fatalf("boundary %d has no name", b)
		}
	}
	if err := AtBoundary(Boundary(99), State{}); err == nil {
		t.Fatal("unknown boundary accepted")
	}
}

func TestAtBoundaryCleanHeap(t *testing.T) {
	h, m := testHeap(t)
	buildGraph(t, h, m, 42)
	for _, b := range []Boundary{PreGC, PostGC} {
		if err := AtBoundary(b, State{Heap: h}); err != nil {
			t.Fatalf("%v on clean heap: %v", b, err)
		}
	}
}

// TestVerifyRecoveredAcceptsPureMove: moving an object and patching the
// reference to it leaves the live graph unchanged; changing its payload
// does not, and the verdict names the object.
func TestVerifyRecoveredAcceptsPureMove(t *testing.T) {
	h, m := testHeap(t)
	k, err := h.Klasses.Define("node", 4, []int32{2})
	if err != nil {
		t.Fatal(err)
	}
	var a, b heap.Address
	m.Run(1, func(w *memsim.Worker) {
		a, _ = h.AllocateEden(w, k, 4)
		b, _ = h.AllocateEden(w, k, 4)
		h.SetRef(w, a, 2, b)
		h.Poke(heap.SlotAddr(b, 3), 777)
		h.Roots.Add(w, a)
	})
	pre, err := Capture(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(pre.Objects) != 2 || pre.Objects[0].Size+pre.Objects[1].Size != 8 {
		t.Fatalf("snapshot = %+v", pre)
	}
	m.Run(1, func(w *memsim.Worker) {
		nb, _ := h.AllocateEden(w, k, 4)
		h.MoveWordsRaw(nb, b, 4)
		h.Poke(heap.SlotAddr(a, 2), nb)
		b = nb
	})
	if err := VerifyRecovered(h, pre); err != nil {
		t.Fatalf("pure move rejected: %v", err)
	}
	h.Poke(heap.SlotAddr(b, 3), 778)
	if err := VerifyRecovered(h, pre); err == nil || !strings.Contains(err.Error(), "object #1 (node) payload word") {
		t.Fatalf("payload change: %v", err)
	}
}

// TestVerifyRecoveredNamesTheObject: each way a recovery can lose data is
// rejected with a message naming the first object that differs.
func TestVerifyRecoveredNamesTheObject(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(h *heap.Heap, a, b, arr heap.Address)
		want string
	}{
		{"flipped payload word", func(h *heap.Heap, a, b, arr heap.Address) {
			h.Poke(heap.SlotAddr(b, 4), 42^1)
		}, "object #2 (node) payload word 0 is 0x2b"},
		{"retargeted edge", func(h *heap.Heap, a, b, arr heap.Address) {
			h.Poke(heap.SlotAddr(a, 2), arr)
		}, "object #0 (node) ref slot 0 points at #1 (prim[]), reference points at #2 (node)"},
		{"cleared root", func(h *heap.Heap, a, b, arr heap.Address) {
			h.Poke(h.Roots.Slots()[1], 0)
		}, "its root 1 reaches #1 (prim[])"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, m := testHeap(t)
			a, b, arr := buildGraph(t, h, m, 42)
			pre, err := Capture(h)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyRecovered(h, pre); err != nil {
				t.Fatalf("untouched heap rejected: %v", err)
			}
			tc.mut(h, a, b, arr)
			if err := VerifyRecovered(h, pre); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestReadMostlyParsesCollectionSet: at the read-mostly barrier the
// collection set must still parse, through the same walker as every other
// reader, and a forwarding mark must land in this collection's to-space.
func TestReadMostlyParsesCollectionSet(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(h *heap.Heap, a, arr heap.Address)
		rule string
	}{
		{"clean", func(h *heap.Heap, a, arr heap.Address) {}, ""},
		{"undefined klass", func(h *heap.Heap, a, arr heap.Address) {
			h.Poke(heap.InfoAddr(a), heap.MakeInfo(9999, 6))
		}, "cset-parse"},
		{"object past the bump pointer", func(h *heap.Heap, a, arr heap.Address) {
			h.Poke(heap.InfoAddr(arr), heap.MakeInfo(h.Klasses.ByName("prim[]").ID, 1<<31))
		}, "cset-parse"},
		{"forwarded outside to-space", func(h *heap.Heap, a, arr heap.Address) {
			h.Poke(heap.MarkAddr(a), heap.ForwardedMark(arr))
		}, "forwarding-target"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, m := testHeap(t)
			a, _, arr := buildGraph(t, h, m, 42)
			h.BeginMixedCollection(nil)
			tc.mut(h, a, arr)
			err := AtBoundary(PostReadMostly, State{Heap: h})
			var v *Violation
			switch {
			case tc.rule == "" && err != nil:
				t.Fatalf("clean collection set rejected: %v", err)
			case tc.rule != "" && (!errors.As(err, &v) || v.Rule != tc.rule):
				t.Fatalf("got %v, want rule %q", err, tc.rule)
			}
		})
	}
}
