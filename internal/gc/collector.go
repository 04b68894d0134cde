package gc

import (
	"errors"
	"fmt"

	"nvmgc/internal/check"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

// ErrCrashed is returned by Collect when an injected power failure fired
// mid-collection: the machine halted, every GC worker unwound, and the
// heap is left in its interrupted state. CollectThroughCrash is the one
// caller that handles it: it materializes the post-crash NVM image
// (memsim.Machine.MaterializeCrash), runs recovery and verifies the heap.
var ErrCrashed = errors.New("gc: power failure injected mid-collection")

// Collector is a stop-the-world copying garbage collector running the
// three algorithms of G1's design (Section 2.1): young, mixed and full
// collection. Both G1 and PS implement it, so a wrapper that forgets to
// forward one of the three does not compile.
type Collector interface {
	// Name identifies the algorithm ("g1" or "ps").
	Name() string
	// Heap returns the heap the collector manages.
	Heap() *heap.Heap
	// Collect runs one young collection with the given thread count and
	// returns its statistics. The heap's machine clock advances by the
	// pause time.
	Collect(threads int) (CollectionStats, error)
	// CollectMixed runs one mixed collection: the young generation plus
	// up to maxOldRegions of the garbage-richest old regions.
	CollectMixed(threads, maxOldRegions int) (CollectionStats, error)
	// CollectFull runs one full collection of the whole heap.
	CollectFull(threads int) (CollectionStats, error)
	// Collections returns the statistics of every collection so far.
	Collections() []CollectionStats
}

type base struct {
	h    *heap.Heap
	opt  Options
	hm   *HeaderMap
	pl   *persistLog // nil when Persist is PersistNone
	ps   bool
	name string

	// arena holds the reusable GC scratch (work stacks, destination
	// registry, root list); see cycleArena.
	arena cycleArena

	collections []CollectionStats
}

func newBase(h *heap.Heap, opt Options, ps bool, name string) (*base, error) {
	b := &base{h: h, opt: opt, ps: ps, name: name}
	if opt.HeaderMap {
		hm, err := NewHeaderMap(h, opt.headerMapBudget(h.HeapBytes()))
		if err != nil {
			return nil, err
		}
		b.hm = hm
	}
	if opt.AsyncFlush && !opt.WriteCache {
		return nil, fmt.Errorf("gc: AsyncFlush requires WriteCache")
	}
	if opt.Persist != PersistNone {
		pl, err := newPersistLog(h, opt.Persist)
		if err != nil {
			return nil, err
		}
		b.pl = pl
	}
	return b, nil
}

// Name implements Collector.
func (b *base) Name() string { return b.name }

// Heap implements Collector.
func (b *base) Heap() *heap.Heap { return b.h }

// Options returns the collector's option set.
func (b *base) Options() Options { return b.opt }

// HeaderMap returns the collector's header map, or nil.
func (b *base) HeaderMap() *HeaderMap { return b.hm }

// Collections implements Collector.
func (b *base) Collections() []CollectionStats { return b.collections }

// Totals aggregates all collections so far.
func (b *base) Totals() Totals { return TotalsOf(b.collections) }

// Collect implements Collector.
func (b *base) Collect(threads int) (CollectionStats, error) {
	return b.collect(threads, gcYoung, nil, 0)
}

// CollectFull runs a full collection: the whole heap (young generation
// and old space) forms the collection set and liveness is rediscovered
// from the external roots alone, compacting the old space. This is the
// bottom-line algorithm of Section 2.1 — in G1 it only runs when young
// and mixed collections cannot reclaim enough memory. Note that a full
// GC moves old objects, so raw addresses held outside the heap (other
// than root slots) become stale.
func (b *base) CollectFull(threads int) (CollectionStats, error) {
	return b.collect(threads, gcFull, nil, 0)
}

// CollectMixed runs a mixed collection (the second of G1's three
// algorithms, Section 2.1): a marking pass computes per-region liveness,
// then the young generation plus up to maxOldRegions of the
// garbage-richest old regions are evacuated together. The marking
// duration is reported in MarkTime but not counted as pause (it is
// concurrent in real G1). Old objects move, so raw addresses held
// outside the heap become stale.
func (b *base) CollectMixed(threads, maxOldRegions int) (CollectionStats, error) {
	if maxOldRegions < 0 {
		maxOldRegions = 0
	}
	lv := b.MarkLiveness()
	cands := mixedCandidates(b.h, lv, maxOldRegions, 0.85)
	s, err := b.collect(threads, gcMixed, cands, lv.Duration)
	return s, err
}

type gcMode uint8

const (
	gcYoung gcMode = iota
	gcMixed
	gcFull
)

func (b *base) collect(threads int, mode gcMode, oldCands []*heap.Region, markTime memsim.Time) (CollectionStats, error) {
	if threads < 1 {
		return CollectionStats{}, fmt.Errorf("gc: thread count %d", threads)
	}
	if threads > memsim.MaxWorkers {
		return CollectionStats{}, fmt.Errorf("gc: thread count %d, at most %d workers fit one parallel phase", threads, memsim.MaxWorkers)
	}
	m := b.h.Machine()
	tiers := m.Topology().Tiers()
	tiers0 := make([]memsim.DeviceStats, len(tiers))
	for i, t := range tiers {
		tiers0[i] = t.Stats()
	}

	if b.opt.Check {
		if err := b.checkBoundary(check.PreGC, false); err != nil {
			return CollectionStats{}, err
		}
	}

	// Self-healing: old regions that accumulated hard media errors join
	// every collection set, so their survivors evacuate and the regions
	// retire. badOld is empty (and costs nothing) without a fault model.
	var badOld []*heap.Region
	faulty := anyTierFaulty(m)
	if faulty {
		badOld = b.h.BadLinedOld()
	}
	retired0 := b.h.RetiredCount()

	m.Mark("gc-start")
	var cset []*heap.Region
	switch mode {
	case gcFull:
		cset = b.h.BeginFullCollection()
	case gcMixed:
		cset = b.h.BeginMixedCollection(mergeBadOld(oldCands, badOld))
	default:
		cset = b.h.BeginMixedCollection(badOld)
	}
	c := newCycle(b.h, b.opt, threads, b.hm, b.pl, b.ps, &b.arena)
	c.full = mode == gcFull
	c.prepare(cset)

	start := m.Now()
	m.Run(threads, c.run)
	end := m.Now()
	if m.Crashed() {
		// The injected fault fired: leave the heap exactly as the crash
		// found it (still in-collection, journal still active) for
		// CollectThroughCrash to materialize and recover.
		return CollectionStats{}, ErrCrashed
	}
	if c.err != nil {
		return CollectionStats{}, c.err
	}
	if faulty {
		// Drain the hard errors this cycle surfaced before the collection
		// set retires: a cset region poisoned mid-cycle then goes straight
		// to the retired state instead of rejoining the free pool.
		b.noteNewUEs(&c.stats)
	}
	b.h.FinishCollection(cset)
	if mode != gcYoung || len(badOld) > 0 {
		// Mixed and full collections retire old regions (as does a young
		// collection that absorbed bad-lined old regions); drop remembered
		// set entries whose slots lived in them.
		b.h.ScrubRemSets()
	}
	if faulty {
		c.stats.Faults.RegionsRetired = int64(b.h.RetiredCount() - retired0)
	}
	if b.opt.Check {
		if err := b.checkBoundary(check.PostGC, b.pl != nil); err != nil {
			return CollectionStats{}, err
		}
	}
	m.Mark("gc-end")
	c.release()

	s := c.stats
	s.Full = mode == gcFull
	s.Mixed = mode == gcMixed
	s.MarkTime = markTime
	s.Pause = end - start
	s.ReadMostly = c.readMostlyEnd - start
	s.WriteOnly = c.writeOnlyEnd - c.readMostlyEnd
	s.Cleanup = end - c.writeOnlyEnd
	if b.pl != nil {
		s.Checkpoint = c.checkpointEnd - start
		s.PersistBarrier = c.persistEnd - c.writeOnlyEnd
		s.Cleanup = end - c.persistEnd
		s.JournalEntries = b.pl.appended
		s.JournalBytes = b.pl.appended * journalEntryBytes
	}
	// Per-tier traffic deltas, with the classic NVM/DRAM aggregates folded
	// from the tier attributes (persistent tiers feed NVM, volatile ones
	// DRAM) — identical to the old two-device readings under the default
	// topology.
	s.Tiers = make([]TierTraffic, len(tiers))
	for i, t := range tiers {
		delta := t.Stats().Sub(tiers0[i])
		s.Tiers[i] = TierTraffic{Name: t.Spec().Name, Persistent: t.Persistent(), Stats: delta}
		if t.Persistent() {
			s.NVM = addStats(s.NVM, delta)
		} else {
			s.DRAM = addStats(s.DRAM, delta)
		}
	}
	b.collections = append(b.collections, s)
	return s, nil
}

// checkBoundary runs the phase-boundary invariant checker on the
// collector's steady state (committed marks a PostGC boundary reached
// through a persist barrier and journal commit).
func (b *base) checkBoundary(bd check.Boundary, committed bool) error {
	var hv check.HeaderMapView
	if b.hm != nil {
		hv = b.hm
	}
	return check.AtBoundary(bd, check.State{Heap: b.h, HeaderMap: hv, PersistCommitted: committed})
}

// G1 is the Garbage-First young collector: per-thread survivor regions,
// region-grained evacuation, remembered-set roots, work stealing, and
// referent prefetching on work-stack pushes (present in vanilla G1).
type G1 struct{ base }

// NewG1 builds a G1 collector over h with the given options.
func NewG1(h *heap.Heap, opt Options) (*G1, error) {
	b, err := newBase(h, opt, false, "g1")
	if err != nil {
		return nil, err
	}
	return &G1{base: *b}, nil
}

// PS is the Parallel Scavenge young collector: survivors are copied into
// thread-local allocation buffers (LABs) carved from shared regions, and
// large objects are copied directly without LABs — which is why the write
// cache absorbs fewer of its writes (Section 4.4). Vanilla PS issues no
// software prefetches.
type PS struct{ base }

// NewPS builds a PS collector over h with the given options.
func NewPS(h *heap.Heap, opt Options) (*PS, error) {
	b, err := newBase(h, opt, true, "ps")
	if err != nil {
		return nil, err
	}
	return &PS{base: *b}, nil
}
