package heap

import (
	"fmt"

	"nvmgc/internal/memsim"
)

// RegionKind classifies a region's current role.
type RegionKind uint8

const (
	// RegionFree is an unused region.
	RegionFree RegionKind = iota
	// RegionEden serves mutator allocation.
	RegionEden
	// RegionSurvivor holds objects evacuated by the last young GC.
	RegionSurvivor
	// RegionOld holds tenured objects.
	RegionOld
	// RegionCache is a DRAM write-cache region mapped to an NVM region.
	RegionCache
	// RegionRetired is a wear-retired region: its media carries at least
	// one uncorrectable error, so it is permanently fenced from the
	// allocator (never returned to a free list). Retired regions are
	// always empty — survivors are evacuated out before retirement.
	RegionRetired
)

// String returns the region kind's name.
func (k RegionKind) String() string {
	switch k {
	case RegionFree:
		return "free"
	case RegionEden:
		return "eden"
	case RegionSurvivor:
		return "survivor"
	case RegionOld:
		return "old"
	case RegionCache:
		return "cache"
	case RegionRetired:
		return "retired"
	default:
		return fmt.Sprintf("RegionKind(%d)", uint8(k))
	}
}

// Region is the basic memory-management unit, as in G1.
type Region struct {
	Index int
	Kind  RegionKind
	Dev   *memsim.Device

	Start, End Address
	Top        Address // bump pointer

	// CachePool marks regions belonging to the DRAM scratch pool.
	CachePool bool

	// InCSet marks regions in the current collection set (set by
	// BeginCollection, cleared when the region is retired).
	InCSet bool

	// ClaimedInGC marks regions claimed while a collection was in
	// progress (to-space survivors, promotion targets, and write-cache
	// regions). After a crash these regions hold partially evacuated
	// data and are discarded by the recovery pass; the flag is cleared
	// when the collection finishes normally.
	ClaimedInGC bool

	// Fallback marks a region claimed on a device other than the one the
	// placement policy declares for its kind — graceful tier degradation
	// routed it to a healthy fallback tier.
	Fallback bool

	// BadLines counts the uncorrectable-error lines inside the region.
	// Wear is permanent: the count survives reset, and Retire routes any
	// bad-lined region to the retired state instead of a free list.
	BadLines int

	// MapTo is the NVM region a cache region will be flushed into
	// (the write cache's region mapping).
	MapTo *Region

	// RemSet records external reference slots pointing into this region.
	RemSet RemSet
}

// Bytes returns the region capacity in bytes.
func (r *Region) Bytes() int64 { return int64(r.End - r.Start) }

// UsedBytes returns the bytes consumed by the bump pointer.
func (r *Region) UsedBytes() int64 { return int64(r.Top - r.Start) }

// Free returns the bytes remaining.
func (r *Region) Free() int64 { return int64(r.End - r.Top) }

// Alloc bumps the region pointer by nWords words. It returns the address
// and true on success, or 0 and false if the region is full. Alloc itself
// charges no virtual time; callers account initialization/copy traffic.
func (r *Region) Alloc(nWords int64) (Address, bool) {
	need := Address(nWords * WordBytes)
	if r.Top+need > r.End {
		return 0, false
	}
	a := r.Top
	r.Top += need
	return a, true
}

// Unalloc retracts the most recent allocation if no later allocation has
// happened (used when a racing GC thread loses the forwarding CAS).
// It reports whether the retraction succeeded.
func (r *Region) Unalloc(addr Address, nWords int64) bool {
	if r.Top == addr+Address(nWords*WordBytes) {
		r.Top = addr
		return true
	}
	return false
}

// reset returns the region to its pristine free state. BadLines survives:
// media wear is permanent.
func (r *Region) reset() {
	r.Kind = RegionFree
	r.Top = r.Start
	r.MapTo = nil
	r.InCSet = false
	r.ClaimedInGC = false
	r.Fallback = false
	r.RemSet.Clear()
}

// RemSet is a region's remembered set: addresses of reference slots that
// live outside the young generation (old-space fields or root slots) and
// point into this region. Duplicates are allowed; the collector tolerates
// re-processing thanks to forwarding pointers.
type RemSet struct {
	slots []Address
}

// Add records a slot address.
func (rs *RemSet) Add(slot Address) { rs.slots = append(rs.slots, slot) }

// Len returns the number of recorded slots.
func (rs *RemSet) Len() int { return len(rs.slots) }

// Slots returns the recorded slot addresses (shared backing; read-only).
func (rs *RemSet) Slots() []Address { return rs.slots }

// Clear drops all recorded slots.
func (rs *RemSet) Clear() { rs.slots = rs.slots[:0] }

// ClaimRegion takes a region from the free pool and assigns it a role.
// For RegionCache it draws from the scratch cache pool; every other kind
// draws from the heap pool. The region lands on the tier the heap's
// placement policy declares for its kind, unless dev overrides it (pass
// nil to follow the policy).
func (h *Heap) ClaimRegion(kind RegionKind, dev *memsim.Device) (*Region, bool) {
	var pool *[]int
	if kind == RegionCache {
		pool = &h.freeCache
	} else {
		pool = &h.freeHeap
	}
	n := len(*pool)
	if n == 0 {
		return nil, false
	}
	idx := (*pool)[n-1]
	*pool = (*pool)[:n-1]
	r := h.regions[idx]
	r.Kind = kind
	r.ClaimedInGC = h.inGC
	var want *memsim.Device
	switch kind {
	case RegionCache:
		want = h.cacheDev
	case RegionEden:
		want = h.edenDev
	case RegionSurvivor:
		want = h.survDev
	default:
		want = h.oldDev
	}
	if dev != nil && kind != RegionCache {
		r.Dev = dev
	} else {
		r.Dev = want
	}
	r.Fallback = r.Dev != want
	h.syncRegionMeta(r)
	switch kind {
	case RegionEden:
		h.eden = append(h.eden, r)
	case RegionSurvivor:
		h.survivors = append(h.survivors, r)
	case RegionOld:
		h.old = append(h.old, r)
	}
	return r, true
}

// Retire returns a region to its free pool and clears its state — unless
// the region's media has accumulated uncorrectable errors, in which case
// it is routed to the permanently-fenced retired state instead: never on
// a free list, never claimable again. (Only heap-pool regions wear-retire;
// the DRAM scratch pool sits on volatile tiers without a fault model.)
func (h *Heap) Retire(r *Region) {
	if h.cfg.Poison {
		n := h.cfg.RegionBytes / WordBytes
		h.fill(h.span(r.Start, n), int(n), 0xDEAD_DEAD_DEAD_DEAD)
	}
	r.reset()
	if r.BadLines > 0 && !r.CachePool {
		r.Kind = RegionRetired
		h.syncRegionMeta(r)
		h.retired = append(h.retired, r.Index)
		return
	}
	h.syncRegionMeta(r)
	if r.CachePool {
		h.freeCache = append(h.freeCache, r.Index)
	} else {
		h.freeHeap = append(h.freeHeap, r.Index)
	}
}

// NoteBadLine records an uncorrectable error on the 64-byte line
// containing addr against its region's bad-line count. Duplicate reports
// of the same line are ignored. It reports whether a new line was
// recorded (false for duplicates and non-region addresses).
func (h *Heap) NoteBadLine(addr Address) bool {
	r := h.RegionOf(addr)
	if r == nil {
		return false
	}
	line := addr &^ (memsim.LineSize - 1)
	if h.badLines == nil {
		h.badLines = make(map[Address]bool)
	}
	if h.badLines[line] {
		return false
	}
	h.badLines[line] = true
	r.BadLines++
	return true
}

// RetiredRegions returns the wear-retired regions in retirement order.
func (h *Heap) RetiredRegions() []*Region {
	out := make([]*Region, len(h.retired))
	for i, idx := range h.retired {
		out[i] = h.regions[idx]
	}
	return out
}

// RetiredCount returns the number of wear-retired regions.
func (h *Heap) RetiredCount() int { return len(h.retired) }

// BadLinedOld returns the live old regions carrying uncorrectable-error
// lines, in index order. The collector folds them into the next
// collection set so their survivors are evacuated and the regions retire.
func (h *Heap) BadLinedOld() []*Region {
	var out []*Region
	for _, r := range h.old {
		if r.BadLines > 0 {
			out = append(out, r)
		}
	}
	return out
}

// FreeHeapRegions returns the number of free Java-heap regions.
func (h *Heap) FreeHeapRegions() int { return len(h.freeHeap) }

// FreeCacheRegions returns the number of free DRAM cache-pool regions.
func (h *Heap) FreeCacheRegions() int { return len(h.freeCache) }

// FreeHeapRegionIndices returns a copy of the free Java-heap region index
// list in pop order (verification only: lets a checker confirm the free
// list and the region table agree).
func (h *Heap) FreeHeapRegionIndices() []int { return append([]int(nil), h.freeHeap...) }

// FreeCacheRegionIndices returns a copy of the free cache-pool region
// index list in pop order (verification only).
func (h *Heap) FreeCacheRegionIndices() []int { return append([]int(nil), h.freeCache...) }

// Eden returns the current eden regions in allocation order.
func (h *Heap) Eden() []*Region { return h.eden }

// Survivors returns the survivor regions of the previous collection.
func (h *Heap) Survivors() []*Region { return h.survivors }

// Old returns the old-space regions.
func (h *Heap) Old() []*Region { return h.old }

// BeginCollection detaches the current young generation (eden + survivor
// lists) as the collection set and resets the heap's young lists so the
// collector can register fresh survivor regions. The returned slice
// reuses an internal buffer that the next Begin*Collection call
// invalidates; a collection consumes it before finishing, so steady-state
// collections allocate nothing here.
func (h *Heap) BeginCollection() []*Region {
	cset := append(h.csetBuf[:0], h.eden...)
	cset = append(cset, h.survivors...)
	h.csetBuf = cset
	for _, r := range cset {
		r.InCSet = true
		h.regionTag[r.Index] |= tagInCSet
	}
	h.eden = h.eden[:0]
	h.edenCur = nil
	h.survivors = h.survivors[:0]
	h.inGC = true
	return cset
}

// BeginFullCollection detaches the whole heap — young generation plus
// old space — as the collection set of a full GC. Remembered sets become
// irrelevant (everything is rediscovered from the roots) and are cleared
// with the regions.
func (h *Heap) BeginFullCollection() []*Region {
	cset := append(h.csetBuf[:0], h.eden...)
	cset = append(cset, h.survivors...)
	cset = append(cset, h.old...)
	h.csetBuf = cset
	for _, r := range cset {
		r.InCSet = true
		h.regionTag[r.Index] |= tagInCSet
	}
	h.eden = h.eden[:0]
	h.edenCur = nil
	h.survivors = h.survivors[:0]
	h.old = h.old[:0]
	h.oldCur = nil
	h.inGC = true
	return cset
}

// BeginMixedCollection detaches the young generation plus the given old
// regions as the collection set of a mixed GC.
func (h *Heap) BeginMixedCollection(oldRegions []*Region) []*Region {
	cset := h.BeginCollection()
	if len(oldRegions) == 0 {
		return cset
	}
	inCset := make(map[int]bool, len(oldRegions))
	for _, r := range oldRegions {
		if r.Kind != RegionOld {
			continue
		}
		r.InCSet = true
		h.regionTag[r.Index] |= tagInCSet
		inCset[r.Index] = true
		cset = append(cset, r)
	}
	kept := h.old[:0]
	for _, r := range h.old {
		if !inCset[r.Index] {
			kept = append(kept, r)
		}
	}
	h.old = kept
	h.oldCur = nil
	h.csetBuf = cset
	return cset
}

// FinishCollection retires the collection-set regions and clears the
// in-collection state (regions claimed during the GC become ordinary
// survivors/old regions).
func (h *Heap) FinishCollection(cset []*Region) {
	for _, r := range cset {
		h.Retire(r)
	}
	for _, r := range h.regions {
		r.ClaimedInGC = false
	}
	h.inGC = false
}

// InGC reports whether a collection is in progress (set by the Begin*
// entry points, cleared by FinishCollection or RollbackCollection).
func (h *Heap) InGC() bool { return h.inGC }

// CrashedCSet returns the regions of an interrupted collection's
// collection set (InCSet still held because FinishCollection never ran),
// in index order.
func (h *Heap) CrashedCSet() []*Region {
	var out []*Region
	for _, r := range h.regions {
		if r.InCSet {
			out = append(out, r)
		}
	}
	return out
}

// RollbackCollection undoes an interrupted collection's heap
// bookkeeping: regions claimed during the GC (half-filled to-space and
// write-cache regions) are retired, collection-set regions return to
// their generation lists, and the eden/survivor/old lists are rebuilt
// from the region table in index order. The caller (the GC recovery
// pass) must first restore the object graph — forwarding marks and
// updated slots — from the journal and the surviving from-space copies.
func (h *Heap) RollbackCollection() {
	h.eden, h.edenCur = nil, nil
	h.survivors = nil
	h.old, h.oldCur = nil, nil
	for _, r := range h.regions {
		if r.ClaimedInGC && r.Kind != RegionFree {
			h.Retire(r)
			continue
		}
		r.InCSet = false
		h.regionTag[r.Index] &^= tagInCSet
		r.ClaimedInGC = false
		switch r.Kind {
		case RegionEden:
			h.eden = append(h.eden, r)
		case RegionSurvivor:
			h.survivors = append(h.survivors, r)
		case RegionOld:
			h.old = append(h.old, r)
		}
	}
	h.inGC = false
}

// RebuildRemSets reconstructs every region's remembered set from a full
// scan of the old generation (remembered sets live in volatile DRAM and
// do not survive a crash). Root-area slots are re-added by the next
// collection's root scan, so only old-space slots are recorded here.
func (h *Heap) RebuildRemSets() {
	for _, r := range h.regions {
		r.RemSet.Clear()
	}
	for _, r := range h.regions {
		if r.Kind != RegionOld {
			continue
		}
		// A corrupt tail stops the walk; the verifier reports it.
		_ = h.WalkRegion(r, func(obj Address, k *Klass, size int64) error {
			for slot := range k.RefSlots(obj, size) {
				if target := h.Peek(slot); target != 0 {
					if tr := h.RegionOf(target); tr != nil && tr != r && tr.Generational() {
						tr.RemSet.Add(slot)
					}
				}
			}
			return nil
		})
	}
}

// ScrubRemSets drops remembered-set entries whose slots no longer lie in
// old-generation regions — they reference memory reclaimed by a mixed or
// full collection and would otherwise be read as garbage later. Called
// after collections that retire old regions.
func (h *Heap) ScrubRemSets() {
	for _, r := range h.regions {
		if r.RemSet.Len() == 0 {
			continue
		}
		slots := r.RemSet.slots
		kept := slots[:0]
		for _, s := range slots {
			sr := h.RegionOf(s)
			if sr == nil || sr.Kind == RegionOld {
				// Root-area slots (outside the heap) and old-space slots
				// stay; everything else is stale.
				kept = append(kept, s)
			}
		}
		r.RemSet.slots = kept
	}
}
