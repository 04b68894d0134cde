package heap

import (
	"fmt"

	"nvmgc/internal/memsim"
)

// RootSet models external GC roots (thread stacks, globals): a fixed array
// of reference slots living in DRAM aux space. Root slots are scanned by
// every collection and updated in place when referents move.
type RootSet struct {
	h     *Heap
	start Address
	cap   int
	used  int   // high-water mark of slots ever used
	free  []int // indices of cleared slots below the high-water mark
}

func newRootSet(h *Heap, slots int) (*RootSet, error) {
	a, err := h.AllocAux(int64(slots) * WordBytes)
	if err != nil {
		return nil, fmt.Errorf("heap: root set does not fit in aux area: %w", err)
	}
	return &RootSet{h: h, start: a, cap: slots}, nil
}

// Add stores ref into a free root slot and returns the slot address.
// It returns 0, false when the root set is full.
func (rs *RootSet) Add(w *memsim.Worker, ref Address) (Address, bool) {
	var idx int
	if n := len(rs.free); n > 0 {
		idx = rs.free[n-1]
		rs.free = rs.free[:n-1]
	} else {
		if rs.used >= rs.cap {
			return 0, false
		}
		idx = rs.used
		rs.used++
	}
	slot := rs.start + Address(idx)*WordBytes
	rs.h.WriteWord(w, slot, ref)
	return slot, true
}

// Clear nils out a root slot previously returned by Add.
func (rs *RootSet) Clear(w *memsim.Worker, slot Address) {
	if slot < rs.start || slot >= rs.start+Address(rs.cap)*WordBytes {
		panic("heap: Clear of a non-root slot")
	}
	rs.h.WriteWord(w, slot, 0)
	rs.free = append(rs.free, int((slot-rs.start)/WordBytes))
}

// ForEach calls fn for every non-nil root slot, in slot order. fn receives
// the slot address (not the referent). Uncharged; collectors account their
// own scanning costs.
func (rs *RootSet) ForEach(fn func(slot Address)) {
	for i := 0; i < rs.used; i++ {
		slot := rs.start + Address(i)*WordBytes
		if rs.h.Peek(slot) != 0 {
			fn(slot)
		}
	}
}

// Slots returns the addresses of all non-nil root slots.
func (rs *RootSet) Slots() []Address {
	var out []Address
	rs.ForEach(func(slot Address) { out = append(out, slot) })
	return out
}
