package check

import (
	"errors"

	"nvmgc/internal/heap"
)

// checkIdle validates the steady (outside-GC) heap state: region
// accounting against the free lists and device placement, object parse,
// reachability, remembered-set coverage, header-map emptiness, write-cache
// idleness, and persistence-domain dirty-line bookkeeping.
func checkIdle(b Boundary, s State) error {
	h := s.Heap
	if h.InGC() {
		return violate(b, "gc-state", "heap still marked in-collection")
	}
	if err := regionAccounting(b, h); err != nil {
		return err
	}
	for _, r := range h.Regions() {
		if r.InCSet {
			return violate(b, "gc-state", "region %d still in a collection set", r.Index)
		}
		if r.ClaimedInGC {
			return violate(b, "gc-state", "region %d still marked claimed-in-gc", r.Index)
		}
		if r.Kind == heap.RegionCache {
			return violate(b, "writecache-idle", "region %d still a live cache region", r.Index)
		}
		if r.MapTo != nil {
			return violate(b, "writecache-idle", "region %d keeps a cache mapping to region %d", r.Index, r.MapTo.Index)
		}
	}
	if n, total := h.FreeCacheRegions(), h.Config().CacheRegions; n != total {
		return violate(b, "writecache-idle", "cache pool not fully recycled: %d of %d regions free", n, total)
	}
	// One walk and one trace serve the parse, reachability and
	// remembered-set rules.
	starts, err := parseRegions(b, h, (*heap.Region).Generational)
	if err != nil {
		return err
	}
	live, err := h.TraceLive(starts)
	if err != nil {
		return violate(b, "reachable-refs", "%v", err)
	}
	if err := remsetSuperset(b, h, live); err != nil {
		return err
	}
	if err := headerMapClear(b, s); err != nil {
		return err
	}
	return persistDomainState(b, s)
}

// regionAccounting checks the region table against the free lists, the
// generation lists, and the placement policy's device bindings.
func regionAccounting(b Boundary, h *heap.Heap) error {
	cfg := h.Config()
	for _, r := range h.Regions() {
		if r.Top < r.Start || r.Top > r.End {
			return violate(b, "region-bounds", "region %d: bump pointer %#x outside [%#x,%#x]", r.Index, r.Top, r.Start, r.End)
		}
		if pool := r.Index >= cfg.HeapRegions; pool != r.CachePool {
			return violate(b, "region-pool", "region %d: CachePool=%v disagrees with index split at %d", r.Index, r.CachePool, cfg.HeapRegions)
		}
		if r.Dev == nil {
			return violate(b, "region-device", "region %d has no device", r.Index)
		}
		if h.DevOf(r.Start) != r.Dev {
			return violate(b, "region-device", "region %d: DevOf(%#x) disagrees with the region's device", r.Index, r.Start)
		}
		// Free heap regions keep the device of their last role (reset does
		// not touch Dev), so placement is only checked for live regions.
		switch r.Kind {
		case heap.RegionEden:
			if r.Dev != h.EdenDevice() {
				return violate(b, "region-device", "eden region %d on %s, placement says %s", r.Index, r.Dev.Name(), h.EdenDevice().Name())
			}
		case heap.RegionSurvivor:
			if r.Dev != h.SurvivorDevice() {
				return violate(b, "region-device", "survivor region %d on %s, placement says %s", r.Index, r.Dev.Name(), h.SurvivorDevice().Name())
			}
		case heap.RegionOld:
			if r.Dev != h.OldDevice() {
				return violate(b, "region-device", "old region %d on %s, placement says %s", r.Index, r.Dev.Name(), h.OldDevice().Name())
			}
		case heap.RegionCache:
			if r.Dev != h.CacheDevice() {
				return violate(b, "region-device", "cache region %d on %s, placement says %s", r.Index, r.Dev.Name(), h.CacheDevice().Name())
			}
		}
		if r.CachePool && r.Dev != h.CacheDevice() {
			return violate(b, "region-device", "cache-pool region %d on %s, placement says %s", r.Index, r.Dev.Name(), h.CacheDevice().Name())
		}
	}
	if err := freeListAgrees(b, h, "heap", h.FreeHeapRegionIndices(), false); err != nil {
		return err
	}
	if err := freeListAgrees(b, h, "cache", h.FreeCacheRegionIndices(), true); err != nil {
		return err
	}
	for _, l := range []struct {
		name    string
		kind    heap.RegionKind
		regions []*heap.Region
	}{
		{"eden", heap.RegionEden, h.Eden()},
		{"survivor", heap.RegionSurvivor, h.Survivors()},
		{"old", heap.RegionOld, h.Old()},
	} {
		seen := make(map[int]bool, len(l.regions))
		for _, r := range l.regions {
			if r.Kind != l.kind {
				return violate(b, "region-lists", "%s list holds region %d of kind %v", l.name, r.Index, r.Kind)
			}
			if seen[r.Index] {
				return violate(b, "region-lists", "%s list holds region %d twice", l.name, r.Index)
			}
			seen[r.Index] = true
		}
		count := 0
		for _, r := range h.Regions() {
			if r.Kind == l.kind {
				count++
			}
		}
		if count != len(l.regions) {
			return violate(b, "region-lists", "%d regions of kind %s but %s list has %d", count, l.kind, l.name, len(l.regions))
		}
	}
	return nil
}

// freeListAgrees checks one free list against the region table: every
// listed index names a free region of the right pool, no index repeats,
// and every free region of that pool is listed.
func freeListAgrees(b Boundary, h *heap.Heap, name string, idx []int, cachePool bool) error {
	regions := h.Regions()
	seen := make(map[int]bool, len(idx))
	for _, i := range idx {
		if i < 0 || i >= len(regions) {
			return violate(b, "free-list", "%s free list holds out-of-range index %d", name, i)
		}
		r := regions[i]
		if r.Kind != heap.RegionFree {
			return violate(b, "free-list", "%s free list holds region %d of kind %v", name, i, r.Kind)
		}
		if r.CachePool != cachePool {
			return violate(b, "free-list", "%s free list holds region %d of the wrong pool", name, i)
		}
		if seen[i] {
			return violate(b, "free-list", "%s free list holds region %d twice", name, i)
		}
		seen[i] = true
	}
	free := 0
	for _, r := range regions {
		if r.Kind == heap.RegionFree && r.CachePool == cachePool {
			free++
		}
	}
	if free != len(idx) {
		return violate(b, "free-list", "%d free %s regions but the free list has %d", free, name, len(idx))
	}
	return nil
}

// parseRegions walks every region selected by keep, checks it tiles into
// well-formed objects up to its bump pointer and carries no forwarding
// mark (no live region may carry one outside a collection), and returns
// the set of object starts.
func parseRegions(b Boundary, h *heap.Heap, keep func(*heap.Region) bool) (map[heap.Address]bool, error) {
	starts := make(map[heap.Address]bool)
	for _, r := range h.Regions() {
		if !keep(r) {
			continue
		}
		if err := walk(b, "region-parse", h, r, func(a heap.Address, _ *heap.Klass, _ int64) error {
			if heap.IsForwarded(h.Peek(heap.MarkAddr(a))) {
				return violate(b, "no-stale-forwarding", "region %d (%v): object %#x carries a forwarding mark", r.Index, r.Kind, a)
			}
			starts[a] = true
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return starts, nil
}

// walk runs heap.WalkRegion over r: a violation visit returns passes
// through, and a region that does not parse violates rule.
func walk(b Boundary, rule string, h *heap.Heap, r *heap.Region, visit func(heap.Address, *heap.Klass, int64) error) error {
	err := h.WalkRegion(r, visit)
	var v *Violation
	if err == nil || errors.As(err, &v) {
		return err
	}
	return violate(b, rule, "%v", err)
}

// remsetSuperset checks the remembered-set contract both ways: every
// cross-region reference out of a *live* old object's slot is covered by
// the target region's remembered set (remset ⊇ live edges), and every
// recorded slot lies where the write barrier could have recorded it
// (old space or the external root area).
//
// Dead old objects are exempt: their slots keep whatever address they
// last held, and once the pointed-to region is retired and recycled the
// stale value can land anywhere — the collector never reads those slots
// through a remembered set whose holder chain has died, so no contract
// covers them.
func remsetSuperset(b Boundary, h *heap.Heap, live []heap.Address) error {
	inSet := make(map[int]map[heap.Address]bool)
	covered := func(tr *heap.Region, slot heap.Address) bool {
		set, ok := inSet[tr.Index]
		if !ok {
			set = make(map[heap.Address]bool, tr.RemSet.Len())
			for _, s := range tr.RemSet.Slots() {
				set[s] = true
			}
			inSet[tr.Index] = set
		}
		return set[slot]
	}
	for _, obj := range live {
		r := h.RegionOf(obj)
		if r.Kind != heap.RegionOld {
			continue
		}
		k, size := h.PeekObject(obj)
		for slot := range k.RefSlots(obj, size) {
			target := h.Peek(slot)
			if target == 0 {
				continue
			}
			if tr := h.RegionOf(target); tr != nil && tr != r && tr.Generational() && !covered(tr, slot) {
				return violate(b, "remset-superset",
					"old slot %#x (region %d) points at %#x in %v region %d but is missing from its remembered set",
					slot, r.Index, target, tr.Kind, tr.Index)
			}
		}
	}
	for _, tr := range h.Regions() {
		for _, slot := range tr.RemSet.Slots() {
			sr := h.RegionOf(slot)
			if sr == nil {
				continue // root-area slot: rescanned every collection
			}
			if sr.Kind != heap.RegionOld {
				return violate(b, "remset-slots",
					"region %d remembers slot %#x living in a %v region", tr.Index, slot, sr.Kind)
			}
		}
	}
	return nil
}

// headerMapClear checks that the DRAM header map holds no entries outside
// a collection (ClearStripe wipes it at the end of every cycle; a stale
// forwarding entry would corrupt the next collection).
func headerMapClear(b Boundary, s State) error {
	hm := s.HeaderMap
	if hm == nil {
		return nil
	}
	if u := hm.Used(); u != 0 {
		return violate(b, "headermap-clear", "header map reports %d live entries outside a collection", u)
	}
	for i := 0; i < hm.Entries(); i++ {
		if k, v := hm.PeekEntry(i); k != 0 || v != 0 {
			return violate(b, "headermap-clear", "header map entry %d not cleared: key %#x value %#x", i, k, v)
		}
	}
	return nil
}

// persistDomainState checks the persistence domain's dirty-line
// bookkeeping against the heap: every unpersisted line must live on a
// tracked device, and after a committed collection no line of the
// collection's output (survivor/old regions, the journal area) may still
// be dirty — the persist barrier flushed them before the commit record.
func persistDomainState(b Boundary, s State) error {
	h := s.Heap
	pd := h.Machine().Persist()
	if pd == nil {
		return nil
	}
	metaLo := h.MetaBase()
	metaHi := metaLo + heap.Address(h.MetaBytes())
	for _, la := range pd.DirtyLines() {
		dev := h.DevOf(la)
		if !pd.Tracks(dev) {
			return violate(b, "persist-tracked", "dirty line %#x on untracked device %s", la, dev.Name())
		}
		if !s.PersistCommitted {
			continue
		}
		if r := h.RegionOf(la); r != nil && (r.Kind == heap.RegionSurvivor || r.Kind == heap.RegionOld) {
			return violate(b, "persist-flushed",
				"line %#x in %v region %d still dirty after the journal commit", la, r.Kind, r.Index)
		}
		if la >= metaLo && la < metaHi {
			return violate(b, "persist-flushed", "journal line %#x still dirty after the commit", la)
		}
	}
	return nil
}

// checkReadMostly validates the heap at the end of the copy-and-traverse
// sub-phase: the write-cache region mapping, destination-region roles,
// forwarding state (NVM headers and the DRAM header map), and that every
// flushed or uncached destination parses into well-formed copies.
func checkReadMostly(b Boundary, s State) error {
	h := s.Heap
	if !h.InGC() {
		return violate(b, "gc-state", "heap not marked in-collection")
	}
	mappedTo := make(map[int]int) // final region index -> cache region index
	for _, cr := range h.Regions() {
		if cr.Kind != heap.RegionCache {
			if cr.MapTo != nil {
				return violate(b, "writecache-mapping", "non-cache region %d (%v) carries a cache mapping", cr.Index, cr.Kind)
			}
			continue
		}
		if !cr.CachePool {
			return violate(b, "writecache-mapping", "cache region %d outside the cache pool", cr.Index)
		}
		ft := cr.MapTo
		if ft == nil {
			return violate(b, "writecache-mapping", "cache region %d has no mapped destination", cr.Index)
		}
		if ft.Kind != heap.RegionSurvivor && ft.Kind != heap.RegionOld {
			return violate(b, "writecache-mapping", "cache region %d maps to %v region %d", cr.Index, ft.Kind, ft.Index)
		}
		if !ft.ClaimedInGC {
			return violate(b, "writecache-mapping", "cache region %d maps to region %d not claimed by this collection", cr.Index, ft.Index)
		}
		if prev, dup := mappedTo[ft.Index]; dup {
			return violate(b, "writecache-mapping", "cache regions %d and %d both map to region %d", prev, cr.Index, ft.Index)
		}
		mappedTo[ft.Index] = cr.Index
		if cu, fu := cr.UsedBytes(), ft.UsedBytes(); cu != fu {
			return violate(b, "writecache-mapping",
				"cache region %d used %d bytes but its destination region %d records %d", cr.Index, cu, ft.Index, fu)
		}
	}
	for _, r := range h.Regions() {
		if r.ClaimedInGC && !r.CachePool && r.Kind != heap.RegionFree &&
			r.Kind != heap.RegionSurvivor && r.Kind != heap.RegionOld {
			return violate(b, "claimed-kinds", "region %d claimed by this collection has kind %v", r.Index, r.Kind)
		}
	}

	// From-space stays parseable mid-collection: evacuation only CASes
	// mark words. Record starts and forwarded objects for the header-map
	// cross-check.
	csetStarts := make(map[heap.Address]bool)
	headerForwarded := make(map[heap.Address]bool)
	for _, r := range h.Regions() {
		if !r.InCSet {
			continue
		}
		if err := walk(b, "cset-parse", h, r, func(a heap.Address, _ *heap.Klass, _ int64) error {
			csetStarts[a] = true
			if mark := h.Peek(heap.MarkAddr(a)); heap.IsForwarded(mark) {
				headerForwarded[a] = true
				return forwardingTarget(b, h, a, heap.ForwardingAddr(mark))
			}
			return nil
		}); err != nil {
			return err
		}
	}

	// Copies already at their final location (uncached destinations and
	// async-flushed regions) and copies still staged in cache regions must
	// parse into whole, non-forwarded objects.
	if _, err := parseRegions(b, h, func(r *heap.Region) bool {
		if r.Kind == heap.RegionCache {
			return true
		}
		if !r.ClaimedInGC || r.Kind == heap.RegionFree {
			return false
		}
		_, stillCached := mappedTo[r.Index]
		return !stillCached
	}); err != nil {
		return err
	}

	return headerMapEntries(b, s, csetStarts, headerForwarded)
}

// forwardingTarget checks one forwarding pointer: it must land inside the
// allocated prefix of a region claimed by this collection.
func forwardingTarget(b Boundary, h *heap.Heap, from, to heap.Address) error {
	fr := h.RegionOf(to)
	if fr == nil || !fr.ClaimedInGC || (fr.Kind != heap.RegionSurvivor && fr.Kind != heap.RegionOld) {
		return violate(b, "forwarding-target", "object %#x forwards to %#x outside any claimed destination region", from, to)
	}
	if to < fr.Start || to >= fr.Top {
		return violate(b, "forwarding-target", "object %#x forwards to %#x beyond region %d's bump pointer", from, to, fr.Index)
	}
	return nil
}

// headerMapEntries checks every live header-map entry at the read-mostly
// boundary: keys are collection-set object starts, values land in claimed
// destination regions, the live count matches the map's bookkeeping, and
// no object is forwarded both in the map and in its NVM header.
func headerMapEntries(b Boundary, s State, csetStarts, headerForwarded map[heap.Address]bool) error {
	hm := s.HeaderMap
	if hm == nil {
		return nil
	}
	h := s.Heap
	live := int64(0)
	for i := 0; i < hm.Entries(); i++ {
		key, val := hm.PeekEntry(i)
		if key == 0 {
			if val != 0 {
				return violate(b, "headermap-entries", "entry %d has value %#x but no key", i, val)
			}
			continue
		}
		live++
		if !csetStarts[key] {
			return violate(b, "headermap-entries", "entry %d keys %#x, not a collection-set object", i, key)
		}
		if val == 0 {
			return violate(b, "headermap-entries", "entry %d for %#x has no published value at the phase barrier", i, key)
		}
		if err := forwardingTarget(b, h, key, val); err != nil {
			return err
		}
		if headerForwarded[key] {
			return violate(b, "headermap-entries", "object %#x forwarded both in the header map and its NVM header", key)
		}
	}
	if u := hm.Used(); live != u {
		return violate(b, "headermap-entries", "map bookkeeping says %d entries, scan found %d", u, live)
	}
	return nil
}

// checkWriteOnly validates the heap at the end of the write-back
// sub-phase: the write cache is fully drained and every destination
// region holds whole, non-forwarded copies.
func checkWriteOnly(b Boundary, s State) error {
	h := s.Heap
	if !h.InGC() {
		return violate(b, "gc-state", "heap not marked in-collection")
	}
	for _, r := range h.Regions() {
		if r.Kind == heap.RegionCache {
			return violate(b, "writecache-drained", "cache region %d still live after the write-only phase", r.Index)
		}
		if r.MapTo != nil {
			return violate(b, "writecache-drained", "region %d keeps a cache mapping after the write-only phase", r.Index)
		}
	}
	if n, total := h.FreeCacheRegions(), h.Config().CacheRegions; n != total {
		return violate(b, "writecache-drained", "cache pool not recycled: %d of %d regions free", n, total)
	}
	if _, err := parseRegions(b, h, func(r *heap.Region) bool {
		return r.ClaimedInGC && r.Kind != heap.RegionFree
	}); err != nil {
		return err
	}
	return nil
}
