package heap

import (
	"testing"

	"nvmgc/internal/memsim"
)

func TestAddressPredicates(t *testing.T) {
	h, m := testHeap(t)
	if h.Contains(0) || h.Contains(1<<20) {
		t.Fatal("addresses below the heap must not be contained")
	}
	if h.RegionOf(0) != nil {
		t.Fatal("RegionOf outside the heap should be nil")
	}
	k := mustKlass(t, h, "node", 4, nil)
	var a Address
	m.Run(1, func(w *memsim.Worker) { a, _ = h.AllocateEden(w, k, 4) })
	if !h.Contains(a) {
		t.Fatal("allocated address must be contained")
	}
	if h.RegionOf(a) == nil || h.RegionOf(a).Kind != RegionEden {
		t.Fatal("RegionOf mismatch")
	}
	// Aux addresses: DevOf is DRAM, RegionOf nil.
	aux, _ := h.AllocAux(64)
	if h.DevOf(aux) != m.DRAM {
		t.Fatal("aux space must be DRAM")
	}
	if h.RegionOf(aux) != nil {
		t.Fatal("aux space has no region")
	}
	if h.KindAt(aux) != RegionFree {
		t.Fatal("aux space is not young")
	}
}

func TestPeekObjectRejectsGarbage(t *testing.T) {
	h, _ := testHeap(t)
	if k, _ := h.PeekObject(0); k != nil {
		t.Fatal("out-of-range address should not parse")
	}
	// A free region's memory is not a valid object.
	r := h.Regions()[0]
	if k, _ := h.PeekObject(r.Start); k != nil {
		t.Fatal("free-region memory should not parse")
	}
	// An info word with a bogus klass id.
	h.Poke(InfoAddr(r.Start), MakeInfo(9999, 4))
	if k, _ := h.PeekObject(r.Start); k != nil {
		t.Fatal("bogus klass id should not parse")
	}
	// Undersized object.
	h.Poke(InfoAddr(r.Start), MakeInfo(1, 1))
	if k, _ := h.PeekObject(r.Start); k != nil {
		t.Fatal("sub-header size should not parse")
	}
}

func TestIndexPanicsOutOfRange(t *testing.T) {
	h, _ := testHeap(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.Peek(1) // far below base
}

func TestWriteFillerPanicsWhenTooSmall(t *testing.T) {
	h, _ := testHeap(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r, _ := h.ClaimRegion(RegionOld)
	h.WriteFiller(r.Start, 1)
}

func TestFillerParses(t *testing.T) {
	h, _ := testHeap(t)
	r, _ := h.ClaimRegion(RegionOld)
	a, _ := r.Alloc(8)
	h.WriteFiller(a, 8)
	k, size := h.PeekObject(a)
	if k != h.Klasses.ByName("<filler>") || size != 8 {
		t.Fatalf("filler parse: %v %d", k, size)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCopyWordsNTUsesStreamingStores(t *testing.T) {
	h, m := testHeap(t)
	k := mustKlass(t, h, "node", 4, nil)
	src, _ := h.AllocateEden(nil, k, 4)
	r, _ := h.ClaimRegion(RegionOld)
	dst, _ := r.Alloc(4)
	m.Run(1, func(w *memsim.Worker) {
		h.CopyWordsNT(w, dst, src, 4)
	})
	s := m.NVM.Stats()
	if s.NTBytes == 0 {
		t.Fatal("NT copy should use the non-temporal path")
	}
	if h.Peek(InfoAddr(dst)) != h.Peek(InfoAddr(src)) {
		t.Fatal("payload not copied")
	}
}

func TestReadRangeChargesSequential(t *testing.T) {
	h, m := testHeap(t)
	k, _ := h.Klasses.DefineArray("long[]", false)
	a, _ := h.AllocateEden(nil, k, 512)
	before := m.NVM.Stats().ReadBytes
	m.Run(1, func(w *memsim.Worker) {
		h.ReadRange(w, a, 512)
	})
	if got := m.NVM.Stats().ReadBytes - before; got < 4096 {
		t.Fatalf("sequential read charged %d bytes, want >= 4096", got)
	}
}

func TestPoisonDisabled(t *testing.T) {
	cfg := memsim.DefaultConfig()
	m := memsim.NewMachine(cfg)
	hc := DefaultConfig()
	hc.RegionBytes = 16 << 10
	hc.HeapRegions = 16
	hc.EdenRegions = 4
	hc.SurvivorRegions = 2
	hc.Poison = false
	h, err := New(m, hc)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := h.ClaimRegion(RegionOld)
	h.Poke(r.Start, 42)
	h.Retire(r)
	if h.Peek(r.Start) != 42 {
		t.Fatal("without poison, retire should leave memory alone")
	}
}

func TestRootSetCapacity(t *testing.T) {
	cfg := memsim.DefaultConfig()
	m := memsim.NewMachine(cfg)
	hc := DefaultConfig()
	hc.RegionBytes = 16 << 10
	hc.HeapRegions = 16
	hc.EdenRegions = 4
	hc.SurvivorRegions = 2
	hc.RootSlots = 2
	h, err := New(m, hc)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(1, func(w *memsim.Worker) {
		if _, ok := h.Roots.Add(w, 1<<32); !ok {
			t.Error("first add failed")
		}
		if _, ok := h.Roots.Add(w, 1<<32); !ok {
			t.Error("second add failed")
		}
		if _, ok := h.Roots.Add(w, 1<<32); ok {
			t.Error("third add should fail at capacity 2")
		}
	})
	if h.Config().RootSlots != 2 || len(h.Roots.Slots()) != 2 {
		t.Fatal("cap mismatch")
	}
}
