package heap

import "fmt"

// CheckInvariants validates heap consistency: bump pointers in bounds,
// regions parse into well-formed objects, and every reachable reference
// points at a live object start outside free and cache regions. It
// returns the first violation found.
func (h *Heap) CheckInvariants() error {
	starts := make(map[Address]bool)
	for _, r := range h.regions {
		if r.Top < r.Start || r.Top > r.End {
			return fmt.Errorf("region %d: bump pointer out of bounds", r.Index)
		}
		if r.Kind == RegionFree || r.Kind == RegionCache || r.Kind == RegionRetired {
			continue
		}
		for a := r.Start; a < r.Top; {
			k, size := h.PeekObject(a)
			if k == nil {
				return fmt.Errorf("region %d (%v): malformed object at %#x", r.Index, r.Kind, a)
			}
			starts[a] = true
			a += Address(size) * WordBytes
		}
	}

	var err error
	seen := make(map[Address]bool)
	var stack []Address
	visit := func(ref Address, from string) {
		if ref == 0 || err != nil {
			return
		}
		r := h.RegionOf(ref)
		if r == nil || r.Kind == RegionFree || r.Kind == RegionCache || r.Kind == RegionRetired {
			err = fmt.Errorf("%s: reference %#x points into %v space", from, ref, kindName(r))
			return
		}
		if !starts[ref] {
			err = fmt.Errorf("%s: reference %#x is not an object start", from, ref)
			return
		}
		if !seen[ref] {
			seen[ref] = true
			stack = append(stack, ref)
		}
	}
	h.Roots.ForEach(func(slot Address) { visit(h.Peek(slot), "root") })
	for err == nil && len(stack) > 0 {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		k, size := h.PeekObject(obj)
		if mark := h.Peek(MarkAddr(obj)); IsForwarded(mark) {
			err = fmt.Errorf("live object %#x still carries a forwarding pointer", obj)
			break
		}
		for off := int64(HeaderWords); off < size; off++ {
			if k.IsRefSlot(off, size) {
				visit(h.Peek(SlotAddr(obj, off)), fmt.Sprintf("object %#x slot %d", obj, off))
			}
		}
	}
	return err
}

func kindName(r *Region) RegionKind {
	if r == nil {
		return RegionFree
	}
	return r.Kind
}
