package heap

import (
	"testing"
	"testing/quick"

	"nvmgc/internal/memsim"
)

func testHeap(t *testing.T) (*Heap, *memsim.Machine) {
	t.Helper()
	cfg := memsim.DefaultConfig()
	cfg.LLCBytes = 1 << 16
	m := memsim.NewMachine(cfg)
	hc := DefaultConfig()
	hc.HeapRegions = 64
	hc.CacheRegions = 8
	hc.RegionBytes = 16 << 10
	hc.EdenRegions = 16
	hc.SurvivorRegions = 8
	hc.AuxBytes = 1 << 20
	hc.RootSlots = 1 << 10
	hc.Poison = true
	h, err := New(m, hc)
	if err != nil {
		t.Fatal(err)
	}
	return h, m
}

func mustKlass(t *testing.T, h *Heap, name string, size int64, refs []int32) *Klass {
	t.Helper()
	k, err := h.Klasses.Define(name, size, refs)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestConfigValidation(t *testing.T) {
	m := memsim.NewMachine(memsim.DefaultConfig())
	bad := DefaultConfig()
	bad.RegionBytes = 1000 // not a power of two
	if _, err := New(m, bad); err == nil {
		t.Fatal("expected error for non-power-of-two region size")
	}
	bad = DefaultConfig()
	bad.HeapRegions = 0
	if _, err := New(m, bad); err == nil {
		t.Fatal("expected error for zero regions")
	}
	bad = DefaultConfig()
	bad.EdenRegions = bad.HeapRegions
	if _, err := New(m, bad); err == nil {
		t.Fatal("expected error for oversized young generation")
	}
}

func TestKlassTable(t *testing.T) {
	tab := NewKlassTable()
	k1, err := tab.Define("node", 4, []int32{2})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := tab.DefineArray("long[]", false)
	if err != nil {
		t.Fatal(err)
	}
	k3, err := tab.DefineArray("Object[]", true)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 3 {
		t.Fatalf("len = %d", tab.Len())
	}
	if tab.ByID(k1.ID) != k1 || tab.ByName("long[]") != k2 {
		t.Fatal("lookup mismatch")
	}
	if tab.ByID(0) != nil || tab.ByID(99) != nil || tab.ByName("nope") != nil {
		t.Fatal("invalid lookups should return nil")
	}
	if _, err := tab.Define("node", 4, nil); err == nil {
		t.Fatal("duplicate name should fail")
	}
	if _, err := tab.Define("tiny", 1, nil); err == nil {
		t.Fatal("sub-header size should fail")
	}
	if _, err := tab.Define("badref", 4, []int32{5}); err == nil {
		t.Fatal("out-of-range ref offset should fail")
	}
	// Ref-slot queries.
	if !k1.IsRefSlot(2, 4) || k1.IsRefSlot(3, 4) || k1.IsRefSlot(0, 4) {
		t.Fatal("IsRefSlot mismatch for node")
	}
	if k2.IsRefSlot(2, 8) {
		t.Fatal("primitive array has no ref slots")
	}
	if !k3.IsRefSlot(2, 8) || k3.IsRefSlot(8, 8) {
		t.Fatal("ref array slot query mismatch")
	}
	if k3.RefCount(10) != 8 || k2.RefCount(10) != 0 || k1.RefCount(4) != 1 {
		t.Fatal("RefCount mismatch")
	}
}

func TestHeaderEncoding(t *testing.T) {
	info := MakeInfo(7, 42)
	if InfoKlassID(info) != 7 || InfoSize(info) != 42 {
		t.Fatalf("info roundtrip failed: %x", info)
	}
	addr := Address(0x1_0000_1238)
	m := ForwardedMark(addr)
	if !IsForwarded(m) || ForwardingAddr(m) != addr {
		t.Fatal("forwarding roundtrip failed")
	}
	if IsForwarded(MarkWithAge(3)) {
		t.Fatal("aged mark must not look forwarded")
	}
	if MarkAge(MarkWithAge(3)) != 3 || MarkAge(MarkWithAge(0)) != 0 {
		t.Fatal("age roundtrip failed")
	}
	if MarkAge(MarkWithAge(99)) != 15 {
		t.Fatal("age should clamp to 15")
	}
}

func TestAllocateEden(t *testing.T) {
	h, m := testHeap(t)
	k := mustKlass(t, h, "node", 4, []int32{2, 3})
	m.Run(1, func(w *memsim.Worker) {
		a1, ok := h.AllocateEden(w, k, 4)
		if !ok {
			t.Error("first allocation failed")
			return
		}
		a2, ok := h.AllocateEden(w, k, 4)
		if !ok || a2 != a1+4*WordBytes {
			t.Errorf("bump allocation not contiguous: %#x then %#x", a1, a2)
			return
		}
		kk, size := h.PeekObject(a1)
		if kk != k || size != 4 {
			t.Errorf("header mismatch: %v %d", kk, size)
		}
		if h.Peek(SlotAddr(a1, 2)) != 0 {
			t.Error("payload should be zeroed")
		}
		if h.KindAt(a1) != RegionEden {
			t.Error("eden object should be in young")
		}
	})
	if h.AllocatedBytes() != 64 {
		t.Fatalf("allocated bytes = %d", h.AllocatedBytes())
	}
}

func TestEdenExhaustion(t *testing.T) {
	h, m := testHeap(t)
	arr, _ := h.Klasses.DefineArray("long[]", false)
	objWords := h.cfg.RegionBytes / WordBytes / 2
	m.Run(1, func(w *memsim.Worker) {
		n := 0
		for {
			if _, ok := h.AllocateEden(w, arr, objWords); !ok {
				break
			}
			n++
		}
		want := h.cfg.EdenRegions * 2
		if n != want {
			t.Errorf("allocated %d objects before exhaustion, want %d", n, want)
		}
	})
	if len(h.Eden()) != h.cfg.EdenRegions {
		t.Fatalf("eden regions = %d", len(h.Eden()))
	}
}

func TestAllocateOld(t *testing.T) {
	h, m := testHeap(t)
	k := mustKlass(t, h, "node", 4, nil)
	m.Run(1, func(w *memsim.Worker) {
		a, ok := h.AllocateOld(w, k, 4)
		if !ok {
			t.Error("old allocation failed")
			return
		}
		if r := h.RegionOf(a); r.Kind != RegionOld {
			t.Errorf("region kind = %v", r.Kind)
		}
		if h.KindAt(a) != RegionOld {
			t.Error("old object must not be young")
		}
	})
}

func TestClaimRetireRoundtrip(t *testing.T) {
	h, _ := testHeap(t)
	freeBefore := len(h.FreeHeapRegionIndices())
	r, ok := h.ClaimRegion(RegionSurvivor, nil)
	if !ok {
		t.Fatal("claim failed")
	}
	if len(h.FreeHeapRegionIndices()) != freeBefore-1 {
		t.Fatal("free count should drop")
	}
	if r.Kind != RegionSurvivor || len(h.Survivors()) != 1 {
		t.Fatal("survivor bookkeeping wrong")
	}
	r.Alloc(10)
	h.Retire(r)
	if r.Kind != RegionFree || r.Top != r.Start {
		t.Fatal("retire should reset the region")
	}
	if len(h.FreeHeapRegionIndices()) != freeBefore {
		t.Fatal("free count should be restored")
	}
	// Poisoning: retired memory is recognizably dead.
	if h.Peek(r.Start) != 0xDEAD_DEAD_DEAD_DEAD {
		t.Fatal("poison missing")
	}
}

func TestCacheRegionClaim(t *testing.T) {
	h, _ := testHeap(t)
	r, ok := h.ClaimRegion(RegionCache, nil)
	if !ok {
		t.Fatal("cache claim failed")
	}
	if !r.CachePool || r.Dev != h.Machine().DRAM {
		t.Fatal("cache region must come from the DRAM pool")
	}
	h.Retire(r)
	if h.FreeCacheRegions() != h.cfg.CacheRegions {
		t.Fatal("cache pool should be restored")
	}
}

func TestRegionAllocUnalloc(t *testing.T) {
	h, _ := testHeap(t)
	r, _ := h.ClaimRegion(RegionSurvivor, nil)
	a, ok := r.Alloc(8)
	if !ok {
		t.Fatal("alloc failed")
	}
	if !r.Unalloc(a, 8) {
		t.Fatal("unalloc of latest allocation should succeed")
	}
	a1, _ := r.Alloc(8)
	r.Alloc(8)
	if r.Unalloc(a1, 8) {
		t.Fatal("unalloc of non-latest allocation must fail")
	}
	// Exhaustion.
	huge := r.Bytes() / WordBytes
	if _, ok := r.Alloc(huge); ok {
		t.Fatal("oversized alloc should fail")
	}
}

func TestWriteBarrierPopulatesRemSet(t *testing.T) {
	h, m := testHeap(t)
	k := mustKlass(t, h, "node", 4, []int32{2})
	m.Run(1, func(w *memsim.Worker) {
		oldObj, _ := h.AllocateOld(w, k, 4)
		young, _ := h.AllocateEden(w, k, 4)
		h.SetRef(w, oldObj, 2, young)
		yr := h.RegionOf(young)
		if yr.RemSet.Len() != 1 || yr.RemSet.Slots()[0] != SlotAddr(oldObj, 2) {
			t.Errorf("remset = %v", yr.RemSet.Slots())
		}
		if got := h.GetRef(w, oldObj, 2); got != young {
			t.Errorf("GetRef = %#x, want %#x", got, young)
		}
		// Young-to-young stores do not create remset entries.
		y2, _ := h.AllocateEden(w, k, 4)
		before := h.RegionOf(y2).RemSet.Len()
		h.SetRef(w, young, 2, y2)
		if h.RegionOf(y2).RemSet.Len() != before {
			t.Error("young-to-young store must not hit the remset")
		}
	})
}

func TestRootSet(t *testing.T) {
	h, m := testHeap(t)
	k := mustKlass(t, h, "node", 4, nil)
	m.Run(1, func(w *memsim.Worker) {
		a, _ := h.AllocateEden(w, k, 4)
		b, _ := h.AllocateEden(w, k, 4)
		s1, ok := h.Roots.Add(w, a)
		if !ok {
			t.Error("root add failed")
			return
		}
		s2, _ := h.Roots.Add(w, b)
		got := h.Roots.Slots()
		if len(got) != 2 || got[0] != s1 || got[1] != s2 {
			t.Errorf("slots = %v", got)
		}
		h.Roots.Clear(w, s1)
		if n := len(h.Roots.Slots()); n != 1 {
			t.Errorf("live after clear = %d", n)
		}
		// Slot reuse.
		s3, _ := h.Roots.Add(w, b)
		if s3 != s1 {
			t.Errorf("cleared slot should be reused: %#x vs %#x", s3, s1)
		}
	})
}

func TestCASWord(t *testing.T) {
	h, m := testHeap(t)
	k := mustKlass(t, h, "node", 4, nil)
	m.Run(1, func(w *memsim.Worker) {
		a, _ := h.AllocateEden(w, k, 4)
		slot := SlotAddr(a, 2)
		if _, ok := h.CASWord(w, slot, 0, 42); !ok {
			t.Error("CAS from zero should succeed")
		}
		if cur, ok := h.CASWord(w, slot, 0, 43); ok || cur != 42 {
			t.Errorf("stale CAS should fail with current value: %d %v", cur, ok)
		}
	})
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	h, m := testHeap(t)
	k := mustKlass(t, h, "node", 4, []int32{2})
	var a Address
	m.Run(1, func(w *memsim.Worker) {
		a, _ = h.AllocateEden(w, k, 4)
		h.Roots.Add(w, a)
	})
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("clean heap flagged: %v", err)
	}
	// Dangling interior pointer.
	h.Poke(SlotAddr(a, 2), a+8)
	if err := h.CheckInvariants(); err == nil {
		t.Fatal("interior pointer not detected")
	}
	h.Poke(SlotAddr(a, 2), 0)
	// Leftover forwarding pointer.
	h.Poke(MarkAddr(a), ForwardedMark(a))
	if err := h.CheckInvariants(); err == nil {
		t.Fatal("leftover forwarding pointer not detected")
	}
}

func TestCopyWordsChargesBothDevices(t *testing.T) {
	h, m := testHeap(t)
	k := mustKlass(t, h, "node", 4, nil)
	// Build the source without a worker so it is not resident in the LLC.
	src, _ := h.AllocateEden(nil, k, 4)
	h.Poke(SlotAddr(src, 3), 9)
	m.Run(1, func(w *memsim.Worker) {
		cr, _ := h.ClaimRegion(RegionCache, nil)
		dst, _ := cr.Alloc(4)
		nvmBefore := m.NVM.Stats()
		dramBefore := m.DRAM.Stats()
		h.CopyWords(w, dst, src, 4)
		if m.NVM.Stats().ReadBytes == nvmBefore.ReadBytes {
			t.Error("source read not charged to NVM")
		}
		if m.DRAM.Stats().Sub(dramBefore).Total() == 0 {
			t.Error("destination write not charged to DRAM")
		}
		if h.Peek(SlotAddr(dst, 3)) != 9 {
			t.Error("payload not copied")
		}
	})
}

func TestAllocAuxExhaustion(t *testing.T) {
	h, _ := testHeap(t)
	if _, err := h.AllocAux(1 << 40); err == nil {
		t.Fatal("oversized aux alloc should fail")
	}
	a1, err := h.AllocAux(100)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := h.AllocAux(8)
	if err != nil {
		t.Fatal(err)
	}
	if a2 < a1+104 { // rounded to words
		t.Fatalf("aux allocations overlap: %#x %#x", a1, a2)
	}
}

func TestBumpAllocationNeverOverlaps(t *testing.T) {
	h, _ := testHeap(t)
	r, _ := h.ClaimRegion(RegionSurvivor, nil)
	type span struct{ a, b Address }
	var spans []span
	f := func(sizes []uint8) bool {
		for _, s := range sizes {
			n := int64(s%32) + 2
			a, ok := r.Alloc(n)
			if !ok {
				continue
			}
			sp := span{a, a + Address(n*WordBytes)}
			for _, o := range spans {
				if sp.a < o.b && o.a < sp.b {
					return false
				}
			}
			if sp.a < r.Start || sp.b > r.End {
				return false
			}
			spans = append(spans, sp)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBeginFinishCollection(t *testing.T) {
	h, m := testHeap(t)
	k := mustKlass(t, h, "node", 4, nil)
	m.Run(1, func(w *memsim.Worker) {
		h.AllocateEden(w, k, 4)
	})
	if len(h.Eden()) != 1 {
		t.Fatalf("eden regions = %d", len(h.Eden()))
	}
	cset := h.BeginCollection()
	if len(cset) != 1 || len(h.Eden()) != 0 {
		t.Fatal("collection set should detach eden")
	}
	// A survivor claimed now belongs to the *next* young generation.
	h.ClaimRegion(RegionSurvivor, nil)
	h.FinishCollection(cset)
	if cset[0].Kind != RegionFree {
		t.Fatal("cset regions should be retired")
	}
	if len(h.Survivors()) != 1 {
		t.Fatal("new survivor should remain")
	}
}
