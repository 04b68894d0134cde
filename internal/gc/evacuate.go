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

	// exits counts, per reason, how often a worker's drain machine handed
	// control back to its owner (see drainExit). Not a statistic — tests
	// read it to prove every blocking section is exercised.
	exits [numDrainExits]int64

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
		gw.stealCond, gw.stepFn, gw.rootFn = gw.stealReady, gw.step, gw.rootStep
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
	if c.asyncFlushDue(d) {
		c.flush(w, d, true)
	}
}

// asyncFlushDue reports whether d must be written back now, during
// traversal (see destRegion).
func (c *cycle) asyncFlushDue(d *destRegion) bool {
	return c.opt.AsyncFlush && d.cached() && !d.flushed &&
		d.full && !d.stolen && d.pending == 0 && d.labHolds == 0
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

	// stealCond, stepFn and rootFn are the prebuilt stealReady, step and
	// rootStep method values handed to SpinWait and Steps, allocated once
	// per worker instead of once per steal attempt, drain or root scan.
	stealCond func() bool
	stepFn    func(*memsim.Worker) bool
	rootFn    func(*memsim.Worker) bool

	root int // rootStep: index of the root slot whose prefetch is in flight

	// Registers of the drain machine (drain.go): its state, why it last
	// left, and everything the loop body used to keep in locals.
	st   drainState
	exit drainExit

	slot    heap.Address // slot being processed
	ref     heap.Address // its referent
	newAddr heap.Address // where the referent lives now
	val     uint64       // word just loaded (slot, mark) or CAS witness
	mark    uint64       // referent's mark word as last seen
	k       *heap.Klass  // referent's klass, size, age and target generation
	size    int64
	age     int
	promote bool

	phys, final heap.Address // the copy: where its bytes go, what references record
	winner      heap.Address // forwarding address that ended up installed
	reroutes    int          // re-routes of this copy off poisoned lines so far
	nextRef     int64        // reference slots of the copy visited so far
	pushed      int64        // ... and pushed
	pushSlot    heap.Address

	probe     hmProbe      // header-map Get or Put under way
	flushDest *destRegion  // exitFlush: the region to write back
	jAddr     heap.Address // exitJournal: the word about to be mutated
	jOld      uint64       // ... and its current value
	retryAddr heap.Address // exitFaultRetry: the address whose read faulted
	badLine   uint64       // exitReroute: the poisoned line under the copy

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

// scanRoots pushes this worker's stride of the root list. With push-time
// prefetching every slot is a charged operation, so the scan runs in step
// form (rootStep) like the drain loop: a parked worker's root scan
// advances on the running worker's stack instead of costing a coroutine
// switch per slot.
func (gw *gcWorker) scanRoots() {
	c := gw.c
	if c.pushPrefetch {
		gw.root = gw.id - c.threads
		gw.w.Steps(gw.rootFn)
		return
	}
	for i := gw.id; i < len(c.rootSlots); i += c.threads {
		gw.w.Advance(8) // remembered-set iteration overhead
		gw.stack.push(c.rootSlots[i])
	}
}

// rootStep is scanRoots' loop body in step form: push the slot whose
// prefetch has settled (gw.root, negative before the first), then charge
// the next slot's iteration overhead and issue its prefetch.
func (gw *gcWorker) rootStep(w *memsim.Worker) bool {
	c := gw.c
	if gw.root >= 0 {
		gw.stack.push(c.rootSlots[gw.root])
	}
	gw.root += c.threads
	if gw.root >= len(c.rootSlots) {
		return false
	}
	slot := c.rootSlots[gw.root]
	w.Advance(8) // remembered-set iteration overhead
	w.IssuePrefetch(c.h.DevOf(slot), slot, heap.WordBytes, false)
	return true
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

// allocResult is the outcome of a destination claim.
type allocResult uint8

const (
	allocOK         allocResult = iota
	allocFailed                 // no region left; the collection has been failed
	allocWouldBlock             // !block only: nothing done, call again with block
)

// allocDst returns space for a copy of the given size in the requested
// generation, claiming destination regions (G1) or LABs (PS) as needed.
// Retiring a full destination can write it back on the spot under
// AsyncFlush, which blocks; with block false (the caller is a step, see
// drain.go) allocDst reports allocWouldBlock instead, before it has
// changed anything.
func (gw *gcWorker) allocDst(size int64, promote, block bool) (phys, final heap.Address, res allocResult) {
	if gw.c.ps {
		return gw.allocDstPS(size, promote, block)
	}
	return gw.allocDstG1(size, promote, block)
}

func (gw *gcWorker) allocDstG1(size int64, promote, block bool) (phys, final heap.Address, res allocResult) {
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
				return p, f, allocOK
			}
			if !block && c.opt.AsyncFlush {
				return 0, 0, allocWouldBlock
			}
			c.retireDest(gw.w, *dp)
			*dp = nil
		}
		d, ok := c.newDest(gw.w, kind, true)
		if !ok {
			return 0, 0, allocFailed
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
