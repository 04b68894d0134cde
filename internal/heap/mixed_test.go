package heap

import (
	"testing"

	"nvmgc/internal/memsim"
)

func TestCrossRegionOldBarrier(t *testing.T) {
	h, m := testHeap(t)
	k := mustKlass(t, h, "node", 4, []int32{2})
	m.Run(1, func(w *memsim.Worker) {
		a, _ := h.AllocateOld(w, k, 4)
		// Force b into a different old region.
		var b Address
		ra := h.RegionOf(a)
		for {
			x, ok := h.AllocateOld(w, k, 4)
			if !ok {
				t.Error("heap full")
				return
			}
			if h.RegionOf(x) != ra {
				b = x
				break
			}
		}
		h.SetRef(w, a, 2, b)
		if h.RegionOf(b).RemSet.Len() != 1 {
			t.Error("old->old cross-region edge not recorded")
		}
		// Same-region old->old stores are not recorded.
		c, _ := h.AllocateOld(w, k, 4)
		d, _ := h.AllocateOld(w, k, 4)
		if h.RegionOf(c) == h.RegionOf(d) {
			before := h.RegionOf(d).RemSet.Len()
			h.SetRef(w, c, 2, d)
			if h.RegionOf(d).RemSet.Len() != before {
				t.Error("same-region store must not be recorded")
			}
		}
	})
}

func TestBeginMixedCollection(t *testing.T) {
	h, m := testHeap(t)
	k := mustKlass(t, h, "node", 4, nil)
	m.Run(1, func(w *memsim.Worker) {
		h.AllocateEden(w, k, 4)
		h.AllocateOld(w, k, 4)
	})
	oldRegion := h.Old()[0]
	cset := h.BeginMixedCollection([]*Region{oldRegion})
	if len(cset) != 2 {
		t.Fatalf("cset = %d regions", len(cset))
	}
	if !oldRegion.InCSet {
		t.Fatal("old candidate not marked")
	}
	if len(h.Old()) != 0 {
		t.Fatal("candidate not detached from the old list")
	}
	h.FinishCollection(cset)
	// Non-old regions passed as candidates are ignored.
	r, _ := h.ClaimRegion(RegionSurvivor)
	cset = h.BeginMixedCollection([]*Region{r})
	for _, c := range cset {
		if c == r && c.Kind == RegionOld {
			t.Fatal("survivor misclassified")
		}
	}
	h.FinishCollection(cset)
}

func TestScrubRemSets(t *testing.T) {
	h, m := testHeap(t)
	k := mustKlass(t, h, "node", 4, []int32{2})
	var target *Region
	m.Run(1, func(w *memsim.Worker) {
		a, _ := h.AllocateOld(w, k, 4)
		target = h.RegionOf(a)
	})
	// One valid old slot, one stale slot inside a free region.
	freeRegion, _ := h.ClaimRegion(RegionOld)
	staleSlot := SlotAddr(freeRegion.Start, 2)
	h.Retire(freeRegion)
	validSlot := SlotAddr(h.Old()[0].Start, 2)
	target.RemSet.Add(validSlot)
	target.RemSet.Add(staleSlot)
	h.ScrubRemSets()
	if target.RemSet.Len() != 1 || target.RemSet.Slots()[0] != validSlot {
		t.Fatalf("scrub kept %v", target.RemSet.Slots())
	}
}

func TestBeginFullCollectionDetachesEverything(t *testing.T) {
	h, m := testHeap(t)
	k := mustKlass(t, h, "node", 4, nil)
	m.Run(1, func(w *memsim.Worker) {
		h.AllocateEden(w, k, 4)
		h.AllocateOld(w, k, 4)
	})
	cset := h.BeginFullCollection()
	if len(cset) != 2 {
		t.Fatalf("cset = %d", len(cset))
	}
	if len(h.Old()) != 0 || len(h.Eden()) != 0 {
		t.Fatal("lists not reset")
	}
	for _, r := range cset {
		if !r.InCSet {
			t.Fatal("region not marked in-cset")
		}
	}
	h.FinishCollection(cset)
	if len(h.FreeHeapRegionIndices()) != h.Config().HeapRegions {
		t.Fatal("regions not all reclaimed")
	}
}

// TestYoungPlacement: a policy that names only eden and survivor moves
// those regions and leaves every other area where the defaults put it.
func TestYoungPlacement(t *testing.T) {
	m := memsim.NewMachine(memsim.DefaultConfig())
	hc := DefaultConfig()
	hc.RegionBytes = 16 << 10
	hc.HeapRegions = 64
	hc.EdenRegions = 8
	hc.SurvivorRegions = 4
	hc.Placement = PlacementPolicy{Eden: "dram", Survivor: "dram"}
	hc.MetaBytes = 4 << 10 // a metadata area for DevOf(MetaBase()) to land in
	h, err := New(m, hc)
	if err != nil {
		t.Fatal(err)
	}
	eden, _ := h.ClaimRegion(RegionEden)
	surv, _ := h.ClaimRegion(RegionSurvivor)
	old, _ := h.ClaimRegion(RegionOld)
	for _, c := range []struct {
		area      string
		got, want *memsim.Device
	}{
		{"eden region", eden.Dev, m.DRAM},
		{"survivor region", surv.Dev, m.DRAM},
		{"old region", old.Dev, m.NVM},
		{"cache", h.CacheDevice(), m.DRAM},
		{"aux", h.AuxDevice(), m.DRAM},
		{"meta", h.DevOf(h.MetaBase()), m.NVM},
	} {
		if c.got != c.want {
			t.Errorf("%s on %s, want %s", c.area, c.got.Name(), c.want.Name())
		}
	}
	if hum := h.Placement().Humongous; hum != "nvm" {
		t.Errorf("humongous on %q, want nvm", hum)
	}
}
