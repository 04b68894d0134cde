// Package oracle is the differential-testing half of the deterministic
// simulation safety net: a deliberately naive reference collector, a
// seeded random workload-trace generator, a replayer that drives the same
// trace through the reference and the real collectors, and a campaign
// runner with trace shrinking for failure reports.
//
// The oracle's contract is semantic, not temporal: after replaying the
// same trace, every collector configuration must present the identical
// canonical live graph (check.Capture / check.Diff). Virtual-time figures
// are free to differ — that is the whole point of the optimizations.
package oracle

import (
	"fmt"

	"nvmgc/internal/heap"
)

// RefCollector is the reference semispace young collector: one logical
// thread, breadth-first slot queue, a host-side forwarding table (from-
// space headers are never touched, so there is nothing to restore), and
// remembered sets rebuilt from a full old-space scan instead of being
// maintained incrementally. Every design choice trades speed for being
// obviously correct — it is the oracle the optimized collectors are
// differentially tested against.
type RefCollector struct {
	h           *heap.Heap
	promoteAge  int
	collections int
}

// NewRefCollector builds a reference collector over h with the default
// tenuring threshold (matching gc.Options' default of 2).
func NewRefCollector(h *heap.Heap) *RefCollector {
	return &RefCollector{h: h, promoteAge: 2}
}

// Collections returns the number of completed collections.
func (rc *RefCollector) Collections() int { return rc.collections }

// Collect runs one young collection. All work is host-side and uncharged:
// the reference collector has no virtual-time cost model at all.
func (rc *RefCollector) Collect() error {
	h := rc.h
	cset := h.BeginCollection()

	// Roots: every external root slot, plus every remembered slot of a
	// collection-set region (conservatively, like the real collectors —
	// stale entries at worst keep floating garbage alive for a cycle).
	var queue []heap.Address
	h.Roots.ForEach(func(slot heap.Address) { queue = append(queue, slot) })
	for _, r := range cset {
		queue = append(queue, r.RemSet.Slots()...)
	}

	fwd := make(map[heap.Address]heap.Address)
	var survCur, oldCur *heap.Region
	allocDest := func(size int64, old bool) (heap.Address, bool) {
		if !old {
			if survCur != nil {
				if a, ok := survCur.Alloc(size); ok {
					return a, true
				}
			}
			if r, ok := h.ClaimRegion(heap.RegionSurvivor); ok {
				survCur = r
				if a, ok := r.Alloc(size); ok {
					return a, true
				}
			}
			// Survivor space exhausted: promote early, like the real
			// collectors do on to-space overflow.
		}
		if oldCur != nil {
			if a, ok := oldCur.Alloc(size); ok {
				return a, true
			}
		}
		if r, ok := h.ClaimRegion(heap.RegionOld); ok {
			oldCur = r
			if a, ok := r.Alloc(size); ok {
				return a, true
			}
		}
		return 0, false
	}

	for head := 0; head < len(queue); head++ {
		slot := queue[head]
		from := heap.Address(h.Peek(slot))
		if from == 0 {
			continue
		}
		fr := h.RegionOf(from)
		if fr == nil || !fr.InCSet {
			continue // outside the collection set (or already a new copy)
		}
		to, copied := fwd[from]
		if !copied {
			k, size := h.PeekObject(from)
			if k == nil {
				return fmt.Errorf("refgc: malformed object at %#x (slot %#x)", from, slot)
			}
			mark := h.Peek(heap.MarkAddr(from))
			if heap.IsForwarded(mark) {
				return fmt.Errorf("refgc: from-space header at %#x unexpectedly forwarded", from)
			}
			age := heap.MarkAge(mark) + 1
			var ok bool
			to, ok = allocDest(size, age >= rc.promoteAge)
			if !ok {
				return fmt.Errorf("refgc: out of regions copying %d words", size)
			}
			h.MoveWordsRaw(to, from, size)
			h.Poke(heap.MarkAddr(to), heap.MarkWithAge(age))
			fwd[from] = to
			for off := int64(heap.HeaderWords); off < size; off++ {
				if k.IsRefSlot(off, size) {
					queue = append(queue, heap.SlotAddr(to, off))
				}
			}
		}
		h.Poke(slot, uint64(to))
	}

	h.FinishCollection(cset)
	// Remembered sets are recomputed from scratch — no incremental
	// maintenance to get wrong.
	h.RebuildRemSets()
	rc.collections++
	return nil
}
