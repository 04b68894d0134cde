package heap

import (
	"fmt"

	"nvmgc/internal/memsim"
)

// Object layout: two header words followed by the payload.
//
//	word 0 (mark): forwarding pointer | fwdTag when forwarded, else
//	               age << markAgeShift
//	word 1 (info): klass ID << 32 | total size in words
const (
	// HeaderWords is the object header size in words.
	HeaderWords = 2

	markOffset = 0
	infoOffset = 1

	fwdTag       uint64 = 1
	markAgeShift        = 3
	markAgeMask  uint64 = 0xF << markAgeShift
)

// MakeInfo packs a klass id and total object size into an info word.
func MakeInfo(klassID uint32, sizeWords int64) uint64 {
	return uint64(klassID)<<32 | uint64(uint32(sizeWords))
}

// InfoKlassID extracts the klass id from an info word.
func InfoKlassID(info uint64) uint32 { return uint32(info >> 32) }

// InfoSize extracts the total object size in words from an info word.
func InfoSize(info uint64) int64 { return int64(uint32(info)) }

// IsForwarded reports whether a mark word carries a forwarding pointer.
func IsForwarded(mark uint64) bool { return mark&fwdTag != 0 }

// ForwardedMark builds a mark word carrying a forwarding pointer.
func ForwardedMark(to Address) uint64 { return to | fwdTag }

// ForwardingAddr extracts the forwarding pointer from a mark word.
func ForwardingAddr(mark uint64) Address { return mark &^ 7 }

// MarkWithAge builds a plain (non-forwarded) mark word with the given age.
func MarkWithAge(age int) uint64 {
	if age < 0 {
		age = 0
	}
	if age > 15 {
		age = 15
	}
	return uint64(age) << markAgeShift
}

// MarkAge extracts the age from a non-forwarded mark word.
func MarkAge(mark uint64) int { return int((mark & markAgeMask) >> markAgeShift) }

// MarkAddr returns the address of an object's mark word.
func MarkAddr(obj Address) Address { return obj + markOffset*WordBytes }

// InfoAddr returns the address of an object's info word.
func InfoAddr(obj Address) Address { return obj + infoOffset*WordBytes }

// SlotAddr returns the address of word offset off within an object.
func SlotAddr(obj Address, off int64) Address { return obj + Address(off)*WordBytes }

// PeekObject decodes an object header without charging time. It returns
// nil if the header is not a valid object header.
func (h *Heap) PeekObject(obj Address) (*Klass, int64) {
	if !h.Contains(obj) {
		return nil, 0
	}
	info := h.Peek(InfoAddr(obj))
	k := h.Klasses.ByID(InfoKlassID(info))
	if k == nil {
		return nil, 0
	}
	size := InfoSize(info)
	if size < HeaderWords {
		return nil, 0
	}
	return k, size
}

// initObject writes the header, zeroes the payload, and charges one
// sequential store covering the whole object.
func (h *Heap) initObject(w *memsim.Worker, obj Address, k *Klass, sizeWords int64) {
	h.pdStoreQuiet(obj, sizeWords*WordBytes)
	h.Poke(MarkAddr(obj), MarkWithAge(0))
	h.Poke(InfoAddr(obj), MakeInfo(k.ID, sizeWords))
	h.fill(h.span(obj, sizeWords)+HeaderWords, int(sizeWords)-HeaderWords, 0)
	if w != nil {
		w.Write(h.DevOf(obj), obj, sizeWords*WordBytes, true)
	}
}

// AllocateEden allocates and initializes an object in eden, claiming new
// eden regions up to the configured budget. It returns false when eden is
// exhausted (time to collect).
func (h *Heap) AllocateEden(w *memsim.Worker, k *Klass, sizeWords int64) (Address, bool) {
	if err := h.checkSize(k, sizeWords); err != nil {
		h.setAllocError(err)
		return 0, false
	}
	for {
		if h.edenCur != nil {
			if a, ok := h.edenCur.Alloc(sizeWords); ok {
				h.allocBytes += sizeWords * WordBytes
				h.initObject(w, a, k, sizeWords)
				return a, true
			}
		}
		if len(h.eden) >= h.cfg.EdenRegions {
			return 0, false
		}
		r, ok := h.ClaimRegion(RegionEden, nil)
		if !ok {
			return 0, false
		}
		h.edenCur = r
	}
}

// AllocateOld allocates and initializes an object directly in the old
// generation (used to set up long-lived data sets). It returns false when
// the heap has no free regions left.
func (h *Heap) AllocateOld(w *memsim.Worker, k *Klass, sizeWords int64) (Address, bool) {
	if err := h.checkSize(k, sizeWords); err != nil {
		h.setAllocError(err)
		return 0, false
	}
	for {
		if h.oldCur != nil {
			if a, ok := h.oldCur.Alloc(sizeWords); ok {
				h.initObject(w, a, k, sizeWords)
				return a, true
			}
		}
		r, ok := h.ClaimRegion(RegionOld, nil)
		if !ok {
			return 0, false
		}
		h.oldCur = r
	}
}

func (h *Heap) checkSize(k *Klass, sizeWords int64) error {
	if k.Array {
		if sizeWords < HeaderWords {
			return fmt.Errorf("heap: array size %d below header", sizeWords)
		}
	} else if sizeWords != k.SizeWords {
		return fmt.Errorf("heap: klass %q instances are %d words, not %d", k.Name, k.SizeWords, sizeWords)
	}
	if sizeWords%2 != 0 {
		return fmt.Errorf("heap: object size %d words must be even (keeps allocation gaps fillable)", sizeWords)
	}
	if sizeWords*WordBytes > h.cfg.RegionBytes {
		return fmt.Errorf("heap: object of %d words exceeds region size", sizeWords)
	}
	return nil
}

// FillerKlass returns the reserved primitive-array class used to plug
// allocation gaps (e.g. retired LAB tails) so regions always parse into
// contiguous well-formed objects.
func (h *Heap) FillerKlass() *Klass { return h.filler }

// WriteFiller formats [addr, addr+sizeWords) as an unreachable filler
// object (uncharged; gaps are metadata-sized and cache-resident).
func (h *Heap) WriteFiller(addr Address, sizeWords int64) {
	if sizeWords < HeaderWords {
		panic(fmt.Sprintf("heap: filler of %d words cannot hold a header", sizeWords))
	}
	h.Poke(MarkAddr(addr), MarkWithAge(0))
	h.Poke(InfoAddr(addr), MakeInfo(h.filler.ID, sizeWords))
}

// SetRef stores a reference into word offset off of obj, applying the
// cross-region write barrier: a slot in the old generation pointing into
// a *different* region (young — needed by young GC — or old — needed by
// mixed GC) is recorded in the target region's remembered set.
func (h *Heap) SetRef(w *memsim.Worker, obj Address, off int64, target Address) {
	slot := SlotAddr(obj, off)
	h.WriteWord(w, slot, target)
	h.refBarrier(w, obj, slot, target)
}

func (h *Heap) refBarrier(w *memsim.Worker, obj, slot, target Address) {
	if target == 0 {
		return
	}
	or := h.RegionOf(obj)
	if or == nil || or.Kind != RegionOld {
		return
	}
	tr := h.RegionOf(target)
	if tr == nil || tr == or {
		return
	}
	if tr.Kind == RegionEden || tr.Kind == RegionSurvivor || tr.Kind == RegionOld {
		tr.RemSet.Add(slot)
		w.Advance(15) // card-table barrier overhead
	}
}

// GetRef loads the reference at word offset off of obj.
func (h *Heap) GetRef(w *memsim.Worker, obj Address, off int64) Address {
	return h.ReadWord(w, SlotAddr(obj, off))
}

// SetRefInit stores a reference into a freshly allocated object as part
// of its initialization. It applies the same write barrier as SetRef but
// charges the store as part of the allocation stream (write-combined),
// not as a random write — publishing fields of a new object does not
// re-dirty its cache lines randomly.
func (h *Heap) SetRefInit(w *memsim.Worker, obj Address, off int64, target Address) {
	slot := SlotAddr(obj, off)
	h.pdStore(slot, WordBytes)
	w.Write(h.DevOf(slot), slot, WordBytes, true)
	h.store(h.index(slot), target)
	h.refBarrier(w, obj, slot, target)
}
