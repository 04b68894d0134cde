package gc

import (
	"fmt"

	"nvmgc/internal/check"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

// destRegion is one evacuation destination: an NVM region (final),
// optionally fronted by a DRAM cache region (phys) under the write-cache
// optimization. Objects are copied to phys; forwarding pointers and
// reference updates always carry the final address.
type destRegion struct {
	phys  *heap.Region
	final *heap.Region
	kind  heap.RegionKind // final role: RegionSurvivor or RegionOld

	// Asynchronous-flush bookkeeping (Section 4.2): a cache region may be
	// written back during traversal only once it is full, every reference
	// slot inside has been processed (pending == 0), no LAB still points
	// into it, and no slot in it was work-stolen.
	pending  int64
	labHolds int64
	full     bool
	stolen   bool
	flushed  bool
}

func (d *destRegion) cached() bool { return d.phys != d.final }

// alloc bumps the physical region and returns both the physical address
// (where bytes are written) and the final NVM address (what references and
// forwarding pointers record).
func (d *destRegion) alloc(size int64) (phys, final heap.Address, ok bool) {
	a, ok := d.phys.Alloc(size)
	if !ok {
		return 0, 0, false
	}
	f := a
	if d.cached() {
		f = d.final.Start + (a - d.phys.Start)
		d.final.Top = d.final.Start + (d.phys.Top - d.phys.Start)
	}
	return a, f, true
}

// barrier synchronizes all workers of a cycle between sub-phases and
// records the virtual time the last worker arrived.
type barrier struct {
	n       int
	arrived int
	gen     int
	maxT    memsim.Time
}

func (b *barrier) wait(w *memsim.Worker) memsim.Time {
	g := b.gen
	b.arrived++
	if w.Now() > b.maxT {
		b.maxT = w.Now()
	}
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		return b.maxT
	}
	w.SpinWait(60, func() bool { return b.gen != g })
	return b.maxT
}

// cycle is the shared state of one young collection.
type cycle struct {
	h   *heap.Heap
	opt Options

	threads int
	ps      bool // Parallel-Scavenge allocation policy (LABs + direct copies)
	full    bool // full GC: the collection set covers the old space too
	faulty  bool // some tier carries a media-fault model (see resilience.go)

	hm           *HeaderMap // nil when disabled this cycle
	pushPrefetch bool       // prefetch referents on work-stack push

	promoteAge  int
	cacheBudget int64
	cacheUsed   int64

	labWords    int64 // PS: LAB size
	directWords int64 // PS: objects at least this big bypass LABs

	// arena owns every reusable slice below (see cycleArena); the cycle
	// only borrows them for one collection.
	arena *cycleArena

	rootSlots []heap.Address
	// destByRegion maps a physical (cache) region index to its
	// destination record — a dense array indexed like the heap's region
	// table, replacing a map lookup per processed slot.
	destByRegion []*destRegion
	allDest      []*destRegion
	nextFlush    int

	// PS shared destinations: LAB refills come from cached shared
	// regions; direct copies go to uncached shared regions.
	sharedLAB    [2]*destRegion // indexed by promote
	sharedDirect [2]*destRegion

	workers []*gcWorker
	bar     barrier
	idle    int
	done    bool // traversal termination detected
	err     error

	// Crash-consistency state (nil/zero when Persist is PersistNone).
	pl            *persistLog
	persistLines  []uint64 // dirty-line snapshot for the end-of-GC flush
	persistSnap   bool
	checkpointEnd memsim.Time
	persistEnd    memsim.Time

	stats CollectionStats

	// Mid-phase invariant checks (Options.Check) run exactly once per
	// barrier, by the first worker through it; the cooperative scheduler
	// makes the uncharged check atomic before any worker resumes charged
	// work.
	checkedRM, checkedWO bool

	readMostlyEnd memsim.Time
	writeOnlyEnd  memsim.Time
}

// newCycle builds the shared state of one collection inside ar, reusing
// the arena's scratch from previous cycles (pass nil for a one-shot
// arena, e.g. in tests).
func newCycle(h *heap.Heap, opt Options, threads int, hm *HeaderMap, pl *persistLog, ps bool, ar *cycleArena) *cycle {
	if ar == nil {
		ar = &cycleArena{}
	}
	c := &ar.cyc
	*c = cycle{
		h:           h,
		opt:         opt,
		threads:     threads,
		ps:          ps,
		faulty:      anyTierFaulty(h.Machine()),
		arena:       ar,
		promoteAge:  opt.promoteAge(),
		cacheBudget: opt.writeCacheBudget(h.HeapBytes()),
		labWords:    (4 << 10) / heap.WordBytes,
		directWords: (1 << 10) / heap.WordBytes,
		pl:          pl,
		rootSlots:   ar.rootSlots[:0],
		allDest:     ar.allDest[:0],
	}
	if nr := len(h.Regions()); cap(ar.destByRegion) < nr {
		ar.destByRegion = make([]*destRegion, nr)
	} else {
		ar.destByRegion = ar.destByRegion[:nr]
		clear(ar.destByRegion)
	}
	c.destByRegion = ar.destByRegion
	if opt.HeaderMap && threads >= opt.headerMapMinThreads() {
		c.hm = hm
	}
	// Vanilla G1 already prefetches referents when pushing them (the
	// paper reuses that strategy); PS has no prefetching unless the
	// optimization is enabled (Section 4.4).
	c.pushPrefetch = !ps || opt.Prefetch
	c.bar.n = threads
	for len(ar.workers) < threads {
		gw := &gcWorker{id: len(ar.workers)}
		gw.stealCond = gw.stealReady
		ar.workers = append(ar.workers, gw)
	}
	c.workers = ar.workers[:threads]
	for _, gw := range c.workers {
		gw.c = c
		gw.w = nil
		gw.stack.reset()
		gw.surv, gw.old = nil, nil
		gw.labs = [2]labState{}
	}
	return c
}

// prepare builds the root list: external root slots plus every remembered
// set entry of the collection set. A full GC rediscovers liveness from
// the external roots alone — remembered sets point into regions that are
// themselves being evacuated and are rebuilt during the collection.
func (c *cycle) prepare(cset []*heap.Region) {
	c.rootSlots = c.rootSlots[:0]
	c.h.Roots.ForEach(func(slot heap.Address) {
		c.rootSlots = append(c.rootSlots, slot)
	})
	if c.full {
		return
	}
	for _, r := range cset {
		for _, s := range r.RemSet.Slots() {
			// Skip slots whose containing region is no longer old space:
			// the anchoring object was reclaimed by a mixed or full GC
			// and the memory may have been reused. Also skip slots that
			// live inside the collection set itself (mixed GC): their
			// holders, if live, are traced and copied, and the copies'
			// slots are rescanned — updating the from-space slot here
			// instead would race with the holder's evacuation and lose
			// the remembered-set entry for the copy.
			if sr := c.h.RegionOf(s); sr != nil && (sr.Kind != heap.RegionOld || sr.InCSet) {
				continue
			}
			c.rootSlots = append(c.rootSlots, s)
		}
	}
}

func (c *cycle) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// finalAddrOf translates a cache-region address to its mapped NVM address.
// The kind probe is a tag-array byte load, so non-cache addresses (every
// address when the write cache is off) never touch the region table.
func (c *cycle) finalAddrOf(a heap.Address) heap.Address {
	if c.h.KindAt(a) != heap.RegionCache {
		return a
	}
	if r := c.h.RegionOf(a); r.MapTo != nil {
		return r.MapTo.Start + (a - r.Start)
	}
	return a
}

func (c *cycle) destOf(a heap.Address) *destRegion {
	if i := c.h.RegionIndexOf(a); i >= 0 {
		return c.destByRegion[i]
	}
	return nil
}

// newDest claims a fresh destination region of the given final kind,
// fronting it with a DRAM cache region when the write cache is enabled
// and within budget. Exhausted budget falls back to direct NVM placement
// (Section 3.2: "the GC thread stops allocating new cache regions and
// directly copies objects into NVM").
func (c *cycle) newDest(w *memsim.Worker, kind heap.RegionKind, cacheable bool) (*destRegion, bool) {
	final, ok := c.h.ClaimRegion(kind, c.destDevice(kind))
	if !ok {
		c.fail(fmt.Errorf("gc: heap exhausted while claiming a %v region: %w", kind, ErrTierExhausted))
		return nil, false
	}
	w.Advance(250)
	d := c.allocDestScratch()
	d.phys, d.final, d.kind = final, final, kind
	if cacheable && c.opt.WriteCache {
		rb := c.h.RegionBytes()
		if c.cacheUsed+rb <= c.cacheBudget {
			if cr, ok := c.h.ClaimRegion(heap.RegionCache, nil); ok {
				cr.MapTo = final
				d.phys = cr
				c.cacheUsed += rb
				c.destByRegion[cr.Index] = d
				c.stats.CacheRegionsUsed++
				w.Advance(150)
			}
		}
	}
	c.allDest = append(c.allDest, d)
	return d, true
}

// retireDest marks a destination full and, in asynchronous mode, flushes
// it immediately if it is already quiescent.
func (c *cycle) retireDest(w *memsim.Worker, d *destRegion) {
	if d == nil {
		return
	}
	d.full = true
	c.maybeAsyncFlush(w, d)
}

func (c *cycle) maybeAsyncFlush(w *memsim.Worker, d *destRegion) {
	if !c.opt.AsyncFlush || !d.cached() || d.flushed {
		return
	}
	if d.full && !d.stolen && d.pending == 0 && d.labHolds == 0 {
		c.flush(w, d, true)
	}
}

// flush writes a cached destination back to its mapped NVM region and
// recycles the DRAM cache region.
func (c *cycle) flush(w *memsim.Worker, d *destRegion, async bool) {
	used := d.phys.UsedBytes()
	chunk := c.opt.flushChunk()
	d.final.Top = d.final.Start + heap.Address(used)
	for off := int64(0); off < used; off += chunk {
		n := chunk
		if used-off < n {
			n = used - off
		}
		dst := d.final.Start + heap.Address(off)
		src := d.phys.Start + heap.Address(off)
		if c.opt.NonTemporal {
			c.h.CopyWordsNT(w, dst, src, int64(n)/heap.WordBytes)
		} else {
			c.h.CopyWords(w, dst, src, int64(n)/heap.WordBytes)
		}
	}
	d.flushed = true
	c.destByRegion[d.phys.Index] = nil
	c.h.Retire(d.phys)
	c.cacheUsed -= c.h.RegionBytes()
	d.phys = d.final
	if async {
		c.stats.RegionsFlushedAsync++
	} else {
		c.stats.RegionsFlushedSync++
	}
}

func (c *cycle) allStacksEmpty() bool {
	for _, gw := range c.workers {
		if !gw.stack.empty() {
			return false
		}
	}
	return true
}

// run is the per-worker body of a collection: root scan, copy-and-traverse
// (read-mostly sub-phase), cache write-back (write-only sub-phase), and
// header-map clean-up.
func (c *cycle) run(w *memsim.Worker) {
	gw := c.workers[w.ID()]
	gw.w = w

	if c.pl != nil {
		// Checkpoint: worker 0 opens the journal and persists its header
		// before any worker can journal (and thus mutate) anything.
		if gw.id == 0 {
			c.pl.begin(w)
		}
		c.checkpointEnd = c.bar.wait(w)
	}

	gw.scanRoots()
	gw.drainLoop()
	gw.finishTraversal()

	c.readMostlyEnd = c.bar.wait(w)
	if c.opt.Check && !c.checkedRM {
		c.checkedRM = true
		if err := c.checkMid(check.PostReadMostly); err != nil {
			c.fail(err)
		}
	}

	gw.flushPhase()
	if c.opt.WriteCache && c.opt.NonTemporal {
		w.Fence()
	}

	c.writeOnlyEnd = c.bar.wait(w)
	if c.opt.Check && !c.checkedWO && c.err == nil {
		c.checkedWO = true
		if err := c.checkMid(check.PostWriteOnly); err != nil {
			c.fail(err)
		}
	}

	if c.pl != nil {
		// Persist barrier: every line the collection dirtied (to-space
		// survivors, promoted copies, slot updates) must reach the media
		// before the journal can be committed — otherwise a later crash
		// would find half-applied state with a dead journal. Workers flush
		// stripes of the dirty-line snapshot in parallel; under eADR the
		// snapshot is empty and this degenerates to the commit alone.
		gw.persistFlush()
		c.bar.wait(w)
		if gw.id == 0 {
			c.pl.commit(w)
		}
		c.persistEnd = c.bar.wait(w)
	}

	if c.hm != nil {
		c.hm.ClearStripe(w, gw.id, c.threads)
	}
}

// checkMid runs the phase-boundary invariant checker mid-collection. The
// header-map view reflects whether the map is active this cycle (it can
// be disabled below the thread threshold).
func (c *cycle) checkMid(b check.Boundary) error {
	var hv check.HeaderMapView
	if c.hm != nil {
		hv = c.hm
	}
	return check.AtBoundary(b, check.State{Heap: c.h, HeaderMap: hv})
}

// persistFlush CLWBs this worker's stripe of the dirty-line snapshot and
// fences. The snapshot is taken once, by the first worker past the
// write-only barrier (the scheduler is cooperative, so the guard is safe).
func (gw *gcWorker) persistFlush() {
	c := gw.c
	if !c.persistSnap {
		c.persistSnap = true
		if pd := c.h.Machine().Persist(); pd != nil {
			c.persistLines = pd.DirtyLines()
		}
	}
	var flushed int64
	for i := gw.id; i < len(c.persistLines); i += c.threads {
		line := c.persistLines[i]
		gw.w.CLWB(c.h.DevOf(line), line)
		flushed++
	}
	gw.w.PersistFence()
	c.stats.PersistFlushedLines += flushed
}

// gcWorker is the per-thread evacuation context.
type gcWorker struct {
	c  *cycle
	id int
	w  *memsim.Worker

	stack workStack

	// stealCond is the prebuilt stealReady method value handed to SpinWait,
	// allocated once per worker instead of once per steal attempt.
	stealCond func() bool

	// G1: one private destination per generation.
	surv, old *destRegion

	// PS: thread-local allocation buffers per generation.
	labs [2]labState
}

// labState is a PS thread-local allocation buffer carved from a shared
// destination region.
type labState struct {
	d       *destRegion
	phys    heap.Address
	final   heap.Address
	physEnd heap.Address
}

func (l *labState) remaining() int64 {
	return int64(l.physEnd-l.phys) / heap.WordBytes
}

// scanRoots pushes this worker's stride of the root list.
func (gw *gcWorker) scanRoots() {
	c := gw.c
	for i := gw.id; i < len(c.rootSlots); i += c.threads {
		slot := c.rootSlots[i]
		gw.w.Advance(8) // remembered-set iteration overhead
		if c.pushPrefetch {
			gw.w.Prefetch(c.h.DevOf(slot), slot, heap.WordBytes, false)
		}
		gw.stack.push(slot)
	}
}

// drainLoop processes the work stack, stealing when empty, until global
// termination.
func (gw *gcWorker) drainLoop() {
	c := gw.c
	for c.err == nil {
		slot, ok := gw.stack.take(c.opt.BFS)
		if !ok {
			slot, ok = gw.trySteal()
			if !ok {
				return
			}
		}
		gw.processSlot(slot)
	}
}

// trySteal scans other workers' stacks for work; it returns false on
// global termination. Stolen slots mark their destination region as
// excluded from asynchronous flushing (Section 4.2).
func (gw *gcWorker) trySteal() (heap.Address, bool) {
	c := gw.c
	c.idle++
	for c.err == nil && !c.done {
		for i := 1; i < c.threads; i++ {
			victim := c.workers[(gw.id+i)%c.threads]
			if a, ok := victim.stack.steal(); ok {
				c.idle--
				c.stats.StolenSlots++
				if d := c.destOf(a); d != nil && !d.stolen {
					d.stolen = true
					c.stats.RegionsStolenFrom++
				}
				gw.w.Advance(120)
				return a, true
			}
		}
		if c.idle >= c.threads && c.allStacksEmpty() {
			// Every worker is idle and no stack holds work: traversal is
			// over. Publish termination so the other (still spinning)
			// workers exit too.
			c.done = true
			break
		}
		// Each spin quantum re-runs the checks above; stealReady is their
		// side-effect-free form, so the scheduler can evaluate it while the
		// worker is parked. A true result wakes the worker, which re-runs
		// the loop body over unchanged state and acts on what it found.
		gw.w.SpinWait(150, gw.stealCond)
	}
	c.idle--
	return 0, false
}

// stealReady reports whether trySteal's loop would stop spinning: an
// error or termination was published, some victim stack holds stealable
// work, or this worker can itself detect termination. It mirrors the loop
// body's checks exactly but mutates nothing, so SpinWait may evaluate it
// on the scheduler's behalf between spin quanta.
func (gw *gcWorker) stealReady() bool {
	c := gw.c
	if c.err != nil || c.done {
		return true
	}
	for i := 1; i < c.threads; i++ {
		if !c.workers[(gw.id+i)%c.threads].stack.empty() {
			return true
		}
	}
	return c.idle >= c.threads && c.allStacksEmpty()
}

// processSlot is one iteration of the paper's four-step loop
// (Section 3.1): read the slot, evacuate the referent if it lives in the
// collection set, and update the slot with the referent's new address.
func (gw *gcWorker) processSlot(slot heap.Address) {
	c, h, w := gw.c, gw.c.h, gw.w

	ref := gw.readWordRetry(slot) // step 1: fetch the reference (random read)
	if ref != 0 {
		if h.InCSetAt(ref) {
			newAddr := gw.evacuate(ref)
			if c.err == nil && newAddr != ref {
				gw.updateSlot(slot, ref, newAddr) // step 4: update (random write)
			}
		} else if h.KindAt(ref) == heap.RegionOld {
			r := h.RegionOf(ref)
			// Non-moving old target: if this slot's final home is a
			// *different* old region (a freshly promoted copy), record
			// the old-to-old edge so future mixed collections can
			// evacuate the target's region.
			finalSlot := c.finalAddrOf(slot)
			if fr := h.RegionOf(finalSlot); fr != nil && fr.Kind == heap.RegionOld && fr != r {
				r.RemSet.Add(finalSlot)
			}
		}
	}
	c.stats.SlotsProcessed++

	// Async-flush tracking: this slot no longer blocks its region.
	if d := c.destOf(slot); d != nil {
		d.pending--
		c.maybeAsyncFlush(w, d)
	}
}

// updateSlot writes the new address and maintains remembered sets: an
// old-space slot now pointing at a survivor region must be visible to the
// next young collection. Under a persistence mode, slots that survive a
// crash logically — root slots (region nil) and slots in regions that
// pre-date this collection — are journaled with their old value before
// the write; slots inside regions claimed by this GC are not (recovery
// discards those regions wholesale).
func (gw *gcWorker) updateSlot(slot, oldAddr, newAddr heap.Address) {
	c, h := gw.c, gw.c.h
	if c.pl != nil {
		if r := h.RegionOf(slot); r == nil || !r.ClaimedInGC {
			if err := c.pl.append(gw.w, slot, oldAddr); err != nil {
				c.fail(err)
				return
			}
		}
	}
	h.WriteWord(gw.w, slot, newAddr)
	finalSlot := c.finalAddrOf(slot)
	fr := h.RegionOf(finalSlot)
	if fr == nil {
		// Root slot (aux space): always rescanned, no remset needed.
		return
	}
	// Only old-space slots need remembering; survivor regions are
	// rescanned wholesale as part of the next collection set. Edges into
	// survivor regions feed the next young GC; edges into other old
	// regions feed future mixed GCs.
	if fr.Kind == heap.RegionOld {
		nr := h.RegionOf(newAddr)
		if nr != nil && nr != fr && !nr.InCSet &&
			(nr.Kind == heap.RegionSurvivor || nr.Kind == heap.RegionOld) {
			nr.RemSet.Add(finalSlot)
			gw.w.Advance(15)
		}
	}
}

// evacuate returns the (final NVM) address of ref's surviving copy,
// copying it if this worker wins the forwarding race.
func (gw *gcWorker) evacuate(ref heap.Address) heap.Address {
	c, h, w := gw.c, gw.c.h, gw.w

	// Forwarding lookup: DRAM header map first (if enabled), then the
	// NVM header.
	if c.hm != nil {
		if v := c.hm.Get(w, ref); v != 0 {
			c.stats.HeaderMapHits++
			return v
		}
	}
	mark := gw.readWordRetry(heap.MarkAddr(ref))
	if heap.IsForwarded(mark) {
		return heap.ForwardingAddr(mark)
	}

	// The info word shares the header cache line with the mark word.
	info := h.Peek(heap.InfoAddr(ref))
	k := h.Klasses.ByID(heap.InfoKlassID(info))
	size := heap.InfoSize(info)
	if k == nil || size < heap.HeaderWords {
		c.fail(fmt.Errorf("gc: malformed object at %#x (info %#x)", ref, info))
		return ref
	}
	age := heap.MarkAge(mark)
	promote := age+1 >= c.promoteAge
	if h.KindAt(ref) == heap.RegionOld {
		// Mixed and full GCs compact old objects into fresh old regions;
		// they never return to the young generation.
		promote = true
	}

	phys, final, ok := gw.allocDst(size, promote)
	if !ok {
		if c.err != nil {
			return ref
		}
		// Fall back to the other generation before giving up.
		phys, final, ok = gw.allocDst(size, !promote)
		if !ok {
			c.fail(fmt.Errorf("gc: no space to evacuate %d words", size))
			return ref
		}
		promote = !promote
	}

	// Step 2: copy the object (sequential read + sequential write), plus
	// the CPU cost of size checks, klass decoding, barrier bookkeeping
	// and allocation-cursor updates. Under a fault model the copy probes
	// its destination for hard UEs and re-routes off poisoned lines.
	phys, final, ok = gw.copyObject(ref, size, promote, phys, final)
	if !ok {
		return ref
	}
	newAge := age + 1
	if promote {
		newAge = 0
	}
	h.Poke(heap.MarkAddr(phys), heap.MarkWithAge(newAge))

	// Step 3: install the forwarding pointer.
	winner := gw.installForward(ref, final, mark)
	if winner != final {
		gw.retractCopy(phys, size)
		c.stats.WastedCopies++
		return winner
	}

	c.stats.ObjectsCopied++
	c.stats.BytesCopied += size * heap.WordBytes
	if promote {
		c.stats.ObjectsPromoted++
		c.stats.BytesPromoted += size * heap.WordBytes
	}
	if d := c.destOf(phys); d == nil && c.opt.WriteCache {
		c.stats.CacheFallbackBytes += size * heap.WordBytes
	}

	gw.pushRefs(phys, k, size)
	return final
}

// installForward records old->final, preferring the DRAM header map and
// falling back to a CAS on the NVM object header. It returns the address
// that ended up installed (final, or a racing winner's address).
func (gw *gcWorker) installForward(ref, final heap.Address, oldMark uint64) heap.Address {
	c, h, w := gw.c, gw.c.h, gw.w
	if c.hm != nil {
		if v := c.hm.Put(w, ref, final); v != 0 {
			if v == final {
				c.stats.HeaderMapInstalls++
			}
			return v
		}
		c.stats.HeaderMapFallbacks++
	}
	for {
		if c.pl != nil {
			// Journal the pre-forwarding mark before publishing the
			// forwarding pointer into the NVM header, so recovery can
			// restore the from-space object's header exactly. (With the
			// header map, forwarding state is volatile DRAM and needs no
			// journaling — only this fallback path touches NVM.)
			if err := c.pl.append(w, heap.MarkAddr(ref), oldMark); err != nil {
				c.fail(err)
				return final
			}
		}
		cur, ok := h.CASWord(w, heap.MarkAddr(ref), oldMark, heap.ForwardedMark(final))
		if ok {
			return final
		}
		if heap.IsForwarded(cur) {
			return heap.ForwardingAddr(cur)
		}
		oldMark = cur
	}
}

// retractCopy undoes a copy that lost the forwarding race; if later
// allocation already moved the bump pointer the space is wasted but left
// as a well-formed unreachable object.
func (gw *gcWorker) retractCopy(phys heap.Address, size int64) {
	r := gw.c.h.RegionOf(phys)
	if r == nil {
		return
	}
	if d := gw.c.destOf(phys); d != nil && d.phys == r {
		if r.Unalloc(phys, size) {
			if d.cached() {
				d.final.Top = d.final.Start + (r.Top - r.Start)
			}
			return
		}
	} else if r.Unalloc(phys, size) {
		return
	}
	// Space wasted: the full copy remains as a parseable dead object.
}

// pushRefs pushes the reference slots of a freshly copied object (located
// at its physical address) onto the work stack, prefetching referents.
func (gw *gcWorker) pushRefs(phys heap.Address, k *heap.Klass, size int64) {
	c, h, w := gw.c, gw.c.h, gw.w
	var pushed int64
	pushOne := func(off int64) {
		slot := heap.SlotAddr(phys, off)
		if c.pushPrefetch {
			// Peek reads this worker's own fresh copy: private until the
			// forwarding pointer published it, and immutable afterwards.
			if val := h.Peek(slot); val != 0 {
				if h.InCSetAt(val) {
					if c.hm != nil {
						// With the header map enabled, the forwarding
						// lookup reads the DRAM map, not the NVM header —
						// the paper extends the prefetching instructions
						// accordingly (Section 4.3).
						c.hm.PrefetchFor(w, val)
					} else {
						w.Prefetch(h.DevOf(val), heap.MarkAddr(val), memsim.LineSize, false)
					}
				}
			}
		}
		gw.stack.push(slot)
		w.Advance(4)
		pushed++
	}
	if k.Array {
		if k.ElemRef {
			for off := int64(heap.HeaderWords); off < size; off++ {
				pushOne(off)
			}
		}
	} else {
		for _, o := range k.RefOffsets {
			pushOne(int64(o))
		}
	}
	if pushed > 0 {
		// The pending counter feeds every worker's flush trigger.
		if d := c.destOf(phys); d != nil {
			d.pending += pushed
		}
	}
}

// allocDst returns space for a copy of the given size in the requested
// generation, claiming destination regions (G1) or LABs (PS) as needed.
func (gw *gcWorker) allocDst(size int64, promote bool) (phys, final heap.Address, ok bool) {
	if gw.c.ps {
		return gw.allocDstPS(size, promote)
	}
	return gw.allocDstG1(size, promote)
}

func (gw *gcWorker) allocDstG1(size int64, promote bool) (phys, final heap.Address, ok bool) {
	c := gw.c
	dp := &gw.surv
	kind := heap.RegionSurvivor
	if promote {
		dp = &gw.old
		kind = heap.RegionOld
	}
	for {
		if *dp != nil {
			if p, f, ok := (*dp).alloc(size); ok {
				return p, f, true
			}
			c.retireDest(gw.w, *dp)
			*dp = nil
		}
		d, ok := c.newDest(gw.w, kind, true)
		if !ok {
			return 0, 0, false
		}
		*dp = d
	}
}

// finishTraversal releases the worker's destinations/LABs so the
// write-only phase sees every region as full.
func (gw *gcWorker) finishTraversal() {
	c := gw.c
	if c.ps {
		for i := range gw.labs {
			gw.releaseLAB(&gw.labs[i])
		}
		if gw.id == 0 {
			for _, d := range []*destRegion{c.sharedLAB[0], c.sharedLAB[1], c.sharedDirect[0], c.sharedDirect[1]} {
				c.retireDest(gw.w, d)
			}
		}
		return
	}
	c.retireDest(gw.w, gw.surv)
	c.retireDest(gw.w, gw.old)
	gw.surv, gw.old = nil, nil
}

// flushPhase is the write-only sub-phase: workers drain the list of
// cached, unflushed destination regions and write them back to NVM.
func (gw *gcWorker) flushPhase() {
	c := gw.c
	for c.err == nil {
		var d *destRegion
		for c.nextFlush < len(c.allDest) {
			cand := c.allDest[c.nextFlush]
			c.nextFlush++
			if cand.cached() && !cand.flushed {
				d = cand
				break
			}
		}
		if d == nil {
			return
		}
		c.flush(gw.w, d, false)
	}
}
