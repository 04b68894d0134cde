package heap

import (
	"fmt"
	"iter"
)

// The heap's one uncharged reading of its own object format: WalkRegion
// parses a region into objects, RefSlots lists an object's reference
// slots, and TraceLive follows them from the roots. The invariant checker,
// the post-crash scanner, remembered-set rebuilding and the GC recovery
// pass all read the heap through these three. The collector's charged
// traversal and the reference collector keep their own loops: the first
// is timed, the second is the model the collectors are checked against.

// WalkRegion calls visit on every object of r in address order, up to
// the bump pointer, without charging time. It stops with an error at a
// bump pointer outside the region, at the first object whose header does
// not decode, and at the first object whose end passes the bump pointer,
// so visit never sees a slot beyond r.Top; and it stops at the first error
// visit returns, returning it unchanged.
func (h *Heap) WalkRegion(r *Region, visit func(obj Address, k *Klass, size int64) error) error {
	if r.Top < r.Start || r.Top > r.End {
		return fmt.Errorf("region %d (%v): bump pointer %#x outside [%#x,%#x]", r.Index, r.Kind, r.Top, r.Start, r.End)
	}
	for a := r.Start; a < r.Top; {
		k, size := h.PeekObject(a)
		if k == nil {
			return fmt.Errorf("region %d (%v): malformed object at %#x", r.Index, r.Kind, a)
		}
		end := a + Address(size)*WordBytes
		if end > r.Top {
			return fmt.Errorf("region %d (%v): object at %#x of %d words ends past the bump pointer %#x", r.Index, r.Kind, a, size, r.Top)
		}
		if err := visit(a, k, size); err != nil {
			return err
		}
		a = end
	}
	return nil
}

// RefSlots yields the address of every reference slot of obj, an object
// of this klass and the given total size, in ascending order.
func (k *Klass) RefSlots(obj Address, sizeWords int64) iter.Seq[Address] {
	return func(yield func(Address) bool) {
		for off := int64(HeaderWords); off < sizeWords; off++ {
			if k.IsRefSlot(off, sizeWords) && !yield(SlotAddr(obj, off)) {
				return
			}
		}
	}
}

// Generational reports whether r is an eden, survivor or old region: one
// whose objects the live graph may hold outside a collection.
func (r *Region) Generational() bool {
	return r.Kind == RegionEden || r.Kind == RegionSurvivor || r.Kind == RegionOld
}

// TraceLive walks the live graph depth first from the root slots, without
// charging time, over starts: the object starts a walk of the generational
// regions accepted. It returns the reachable objects in the order the trace
// first reaches them — the roots in slot order, then each scanned object's
// referents in slot order, the last-reached object scanned first — so the
// position of an object in the result names it independently of its
// address. It stops at the first reference that is not an object start in
// a generational region, and at the first reachable object that still
// carries a forwarding mark.
func (h *Heap) TraceLive(starts map[Address]bool) ([]Address, error) {
	var live, stack []Address
	seen := make(map[Address]bool)
	var err error
	reach := func(ref, holder, slot Address) {
		if ref == 0 || err != nil || seen[ref] {
			return
		}
		var why string
		switch r := h.RegionOf(ref); {
		case r == nil:
			why = "points outside the heap"
		case !r.Generational():
			why = fmt.Sprintf("points into %v space", r.Kind)
		case !starts[ref]:
			why = "is not an object start"
		default:
			seen[ref] = true
			live = append(live, ref)
			stack = append(stack, ref)
			return
		}
		from := "root"
		if holder != 0 {
			from = fmt.Sprintf("object %#x slot %d", holder, (slot-holder)/WordBytes)
		}
		err = fmt.Errorf("%s: reference %#x %s", from, ref, why)
	}
	h.Roots.ForEach(func(slot Address) { reach(h.Peek(slot), 0, slot) })
	for err == nil && len(stack) > 0 {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if IsForwarded(h.Peek(MarkAddr(obj))) {
			return nil, fmt.Errorf("live object %#x still carries a forwarding pointer", obj)
		}
		k, size := h.PeekObject(obj)
		for slot := range k.RefSlots(obj, size) {
			reach(h.Peek(slot), obj, slot)
		}
	}
	if err != nil {
		return nil, err
	}
	return live, nil
}

// LiveObjects walks every generational region and traces the live graph
// over the object starts the walk found: TraceLive's result, or the first
// region that does not parse.
func (h *Heap) LiveObjects() ([]Address, error) {
	starts := make(map[Address]bool)
	for _, r := range h.regions {
		if !r.Generational() {
			continue
		}
		if err := h.WalkRegion(r, func(obj Address, _ *Klass, _ int64) error {
			starts[obj] = true
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return h.TraceLive(starts)
}

// CheckInvariants validates heap consistency: every generational region
// parses into well-formed objects up to its bump pointer, and every
// reachable reference points at an object start in such a region. It
// returns the first violation found.
func (h *Heap) CheckInvariants() error {
	_, err := h.LiveObjects()
	return err
}
