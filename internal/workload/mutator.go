package workload

import (
	"fmt"
	"math/rand/v2"

	"nvmgc/internal/gc"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

// Config controls one application run.
type Config struct {
	GCThreads int     // stop-the-world GC parallelism
	Scale     float64 // multiplies the profile's EdenFills; 0 means 1.0
	Seed      uint64  // deterministic RNG seed; 0 means 1

	// MixedGCEvery triggers a mixed collection (concurrent-mark +
	// young + garbage-richest old regions) after every N young
	// collections. 0 disables. The paper notes mixed GCs are much rarer
	// than young GCs and behave similarly in their copy phase.
	MixedGCEvery int

	// FullGCEvery triggers a full (whole-heap) collection after every N
	// young collections. 0 disables. The
	// paper observes no full GCs for its workloads; the knob exists to
	// exercise the bottom-line algorithm under application load.
	FullGCEvery int
}

// Result summarizes one application run.
type Result struct {
	Profile string

	Setup memsim.Time // long-lived data-set construction (excluded)
	Total memsim.Time // mutation + GC (the paper's execution time)
	App   memsim.Time // Total minus GC pauses
	GC    memsim.Time // accumulated stop-the-world pause time

	Collections []gc.CollectionStats
	Allocated   int64 // bytes allocated in eden during the run
	Ops         int64 // keyed-scenario operations completed (0 for legacy profiles)
}

// GCTotals aggregates the run's collections.
func (r Result) GCTotals() gc.Totals { return gc.TotalsOf(r.Collections) }

// keeper is a live allocation cluster: the anchor keeping it reachable
// plus bookkeeping for churn.
type keeper struct {
	epoch  int
	root   heap.Address // root slot, or 0 when holder-anchored
	holder holderSlot
	head   heap.Address // cluster head object
}

type holderSlot struct {
	arr heap.Address
	off int64
}

// mutator is one application model behind the run loop: the profile
// demographics (profileMutator, below) or a keyed op stream
// (keyedMutator, keyed.go). The loop crosses it once per mutator phase,
// never per operation.
type mutator interface {
	// setup builds the long-lived data set in old space (excluded from
	// the run's timing) and fixes the run's budget.
	setup(w *memsim.Worker) error
	// mutate performs application work until the budget is spent (false)
	// or an eden allocation failed (true: collect, then call again).
	// epoch counts the young collections of the run so far.
	mutate(w *memsim.Worker, epoch int) bool
	// refreshAfterGC re-reads every raw address the mutator holds from
	// its anchoring root slots (mixed and full collections move old
	// objects).
	refreshAfterGC()
	// ops returns the keyed operations completed (0 for profiles).
	ops() int64
}

// Runner drives one scenario over a heap/collector pair; build it with
// Spec.NewRunner.
type Runner struct {
	h    *heap.Heap
	m    *memsim.Machine
	col  gc.Collector
	name string
	cfg  Config
	mut  mutator
}

// Run executes the scenario: long-lived setup, then mutate/collect until
// the mutator's budget is exhausted.
func (r *Runner) Run() (Result, error) {
	res := Result{Profile: r.name}
	fail := func(phase string, err error) (Result, error) {
		return res, fmt.Errorf("workload %s%s: %w", r.name, phase, err)
	}
	var setupErr error
	res.Setup = r.m.Run(1, func(w *memsim.Worker) { setupErr = r.mut.setup(w) })
	if setupErr != nil {
		return fail("", setupErr)
	}

	r.m.Mark("run-start")
	runStart := r.m.Now()
	alloc0 := r.h.AllocatedBytes()
	gcBefore := len(r.col.Collections())

	for epoch := 0; ; {
		needGC := false
		r.m.Run(1, func(w *memsim.Worker) { needGC = r.mut.mutate(w, epoch) })
		res.Ops = r.mut.ops()
		if !needGC {
			break
		}
		if err := r.h.AllocError(); err != nil {
			// The allocation failure was a request-validation error (e.g. a
			// malformed custom profile), not memory pressure: collecting
			// would never help, so surface it instead of looping on GCs.
			return fail("", err)
		}
		if _, err := r.col.Collect(r.cfg.GCThreads); err != nil {
			return fail("", err)
		}
		epoch++
		if r.cfg.MixedGCEvery > 0 && epoch%r.cfg.MixedGCEvery == 0 {
			if _, err := r.col.CollectMixed(r.cfg.GCThreads, 32); err != nil {
				return fail(" (mixed gc)", err)
			}
		}
		if r.cfg.FullGCEvery > 0 && epoch%r.cfg.FullGCEvery == 0 {
			if _, err := r.col.CollectFull(r.cfg.GCThreads); err != nil {
				return fail(" (full gc)", err)
			}
		}
		r.mut.refreshAfterGC()
	}
	r.m.Mark("run-end")

	res.Collections = append(res.Collections, r.col.Collections()[gcBefore:]...)
	res.Total = r.m.Now() - runStart
	res.GC = gc.TotalsOf(res.Collections).Pause
	res.App = res.Total - res.GC
	res.Allocated = r.h.AllocatedBytes() - alloc0
	return res, nil
}

// profileMutator replays one application profile's demographics:
// allocation clusters steered toward the profile's type shares, survival
// through root and old-holder anchors, churn before each collection, and
// the profile's own compute and read traffic.
type profileMutator struct {
	h     *heap.Heap
	p     Profile
	scale float64

	rng *rand.Rand

	node, prim, refarr, holderK, longK *heap.Klass
	payloadOff                         int64 // non-ref node slot for payload, -1 if none

	holders     []heap.Address
	holderRoots []heap.Address // root slots anchoring the holder arrays
	freeHolders []holderSlot
	longLived   []heap.Address
	longRoots   []heap.Address // root slots anchoring the long-lived data

	keepers []keeper

	// byte budgets per allocation type
	allocPrim, allocRef, allocTotal int64
	// targetAlloc is the heap's allocation mark at which the run ends.
	targetAlloc int64

	randReadDebt float64
	seqReadDebt  float64
}

// newProfileMutator defines the profile's klasses on h.
func newProfileMutator(h *heap.Heap, p Profile, cfg Config) (*profileMutator, error) {
	if err := p.valid(); err != nil {
		return nil, err
	}
	r := &profileMutator{h: h, p: p, scale: cfg.Scale,
		rng: rand.New(rand.NewPCG(cfg.Seed, 0x9E3779B97F4A7C15))}
	var err error
	defineOrGet := func(name string, size int64, refs []int32) *heap.Klass {
		if k := h.Klasses.ByName(name); k != nil {
			return k
		}
		var k *heap.Klass
		k, err = h.Klasses.Define(name, size, refs)
		return k
	}
	defineArr := func(name string, elemRef bool) *heap.Klass {
		if k := h.Klasses.ByName(name); k != nil {
			return k
		}
		var k *heap.Klass
		k, err = h.Klasses.DefineArray(name, elemRef)
		return k
	}
	refs := []int32{2, 3}
	if p.ObjWords == 4 && p.RefsPerObj < 2 {
		refs = []int32{2}
	}
	r.node = defineOrGet(fmt.Sprintf("node%d", p.ObjWords), p.ObjWords, refs)
	r.prim = defineArr("prim[]", false)
	r.refarr = defineArr("ref[]", true)
	r.holderK = defineArr("holder[]", true)
	r.longK = defineArr("long[]", false)
	if err != nil {
		return nil, err
	}
	r.payloadOff = -1
	for off := p.ObjWords - 1; off >= heap.HeaderWords; off-- {
		if !r.node.IsRefSlot(off, p.ObjWords) {
			r.payloadOff = off
			break
		}
	}
	return r, nil
}

func (r *profileMutator) ops() int64 { return 0 }

func (r *profileMutator) pokePayload(obj heap.Address) {
	if r.payloadOff >= 0 {
		r.h.Poke(heap.SlotAddr(obj, r.payloadOff), r.rng.Uint64())
	}
}

// setup builds the long-lived old-generation working set: bulk primitive
// data plus holder reference arrays that anchor young clusters (the
// source of remembered-set entries). The run's budget is the scaled
// eden-fill volume past the allocation mark setup leaves behind.
func (r *profileMutator) setup(w *memsim.Worker) error {
	heapBytes := r.h.HeapBytes()
	longBytes := int64(r.p.LongLivedFrac * float64(heapBytes))
	const chunkWords = 2048
	for b := int64(0); b < longBytes; b += chunkWords * heap.WordBytes {
		a, ok := r.h.AllocateOld(w, r.longK, chunkWords)
		if !ok {
			break
		}
		slot, ok := r.h.Roots.Add(w, a)
		if !ok {
			break
		}
		r.longLived = append(r.longLived, a)
		r.longRoots = append(r.longRoots, slot)
	}
	for i := 0; i < r.p.HolderArrays; i++ {
		size := r.p.HolderSlots + heap.HeaderWords
		if size%2 != 0 {
			size++
		}
		a, ok := r.h.AllocateOld(w, r.holderK, size)
		if !ok {
			break
		}
		slot, ok := r.h.Roots.Add(w, a)
		if !ok {
			break
		}
		r.holders = append(r.holders, a)
		r.holderRoots = append(r.holderRoots, slot)
		for off := int64(heap.HeaderWords); off < heap.HeaderWords+r.p.HolderSlots; off++ {
			r.freeHolders = append(r.freeHolders, holderSlot{arr: a, off: off})
		}
	}
	edenBytes := int64(r.h.Config().EdenRegions) * r.h.RegionBytes()
	r.targetAlloc = r.h.AllocatedBytes() + int64(r.p.EdenFills*r.scale*float64(edenBytes))
	return nil
}

// mutate allocates clusters and performs application work until the
// target is reached (returns false) or eden fills up (returns true, after
// applying pre-GC churn so the configured survival ratio holds).
func (r *profileMutator) mutate(w *memsim.Worker, epoch int) bool {
	for r.h.AllocatedBytes() < r.targetAlloc {
		before := r.h.AllocatedBytes()
		head, ok := r.allocCluster(w)
		grown := r.h.AllocatedBytes() - before
		if grown > 0 {
			r.appWork(w, grown)
		}
		if !ok {
			r.churn(w, epoch)
			return true
		}
		if head != 0 && r.rng.Float64() < r.p.Survival {
			r.keep(w, head, epoch)
		}
	}
	return false
}

// allocCluster allocates one cluster (node chain, primitive array, or
// reference-array fan-out), steering byte shares toward the profile's
// fractions. It returns the cluster head (0 if nothing allocated) and
// whether allocation succeeded completely.
func (r *profileMutator) allocCluster(w *memsim.Worker) (heap.Address, bool) {
	p := &r.p
	defer func() { r.allocTotal = r.h.AllocatedBytes() }()
	switch {
	case p.PrimArrayFrac > 0 && float64(r.allocPrim) < p.PrimArrayFrac*float64(r.allocTotal):
		a, ok := r.h.AllocateEden(w, r.prim, evenWords(p.PrimArrayWords))
		if ok {
			r.allocPrim += p.PrimArrayWords * heap.WordBytes
			r.h.Poke(heap.SlotAddr(a, 2), r.rng.Uint64())
		}
		return a, ok
	case p.RefArrayFrac > 0 && float64(r.allocRef) < p.RefArrayFrac*float64(r.allocTotal):
		arr, ok := r.h.AllocateEden(w, r.refarr, evenWords(p.RefArrayWords))
		if !ok {
			return 0, false
		}
		r.allocRef += p.RefArrayWords * heap.WordBytes
		// Fan-out: half the slots point at fresh nodes.
		for off := int64(heap.HeaderWords); off < evenWords(p.RefArrayWords); off += 2 {
			n, ok := r.h.AllocateEden(w, r.node, p.ObjWords)
			if !ok {
				return arr, false
			}
			r.pokePayload(n)
			r.h.SetRefInit(w, arr, off, n)
		}
		return arr, true
	default:
		var prev heap.Address
		for i := 0; i < p.ChainLen; i++ {
			a, ok := r.h.AllocateEden(w, r.node, p.ObjWords)
			if !ok {
				return prev, false
			}
			if prev != 0 {
				r.h.SetRefInit(w, a, 2, prev)
			}
			r.pokePayload(a)
			prev = a
		}
		return prev, true
	}
}

func evenWords(n int64) int64 {
	if n%2 != 0 {
		return n + 1
	}
	return n
}

// keep anchors a cluster head in the root set or an old-space holder slot
// (the latter populating remembered sets through the write barrier).
func (r *profileMutator) keep(w *memsim.Worker, head heap.Address, epoch int) {
	k := keeper{epoch: epoch, head: head}
	if len(r.freeHolders) > 0 && r.rng.Float64() < r.p.HolderFrac {
		hs := r.freeHolders[len(r.freeHolders)-1]
		r.freeHolders = r.freeHolders[:len(r.freeHolders)-1]
		r.h.SetRef(w, hs.arr, hs.off, head)
		k.holder = hs
	} else {
		slot, ok := r.h.Roots.Add(w, head)
		if !ok {
			return // root set full: cluster stays dead
		}
		k.root = slot
	}
	r.keepers = append(r.keepers, k)
}

// churn drops keepers before a collection: everything older than two
// epochs dies, and one-epoch-old keepers die with probability ChurnDrop.
// Survivors of two collections are the promotion feed.
func (r *profileMutator) churn(w *memsim.Worker, epoch int) {
	kept := r.keepers[:0]
	for _, k := range r.keepers {
		age := epoch - k.epoch
		drop := age >= 2 || (age == 1 && r.rng.Float64() < r.p.ChurnDrop)
		if !drop {
			kept = append(kept, k)
			continue
		}
		if k.root != 0 {
			r.h.Roots.Clear(w, k.root)
		} else {
			r.h.WriteWord(w, heap.SlotAddr(k.holder.arr, k.holder.off), 0)
			r.freeHolders = append(r.freeHolders, k.holder)
		}
	}
	r.keepers = kept
}

// refreshAfterGC re-reads every raw address the mutator holds from its
// anchoring root slots. Young collections only move young objects, but a
// full GC also moves the old-space holder and long-lived arrays, so all
// holder-slot references must be remapped.
func (r *profileMutator) refreshAfterGC() {
	remap := make(map[heap.Address]heap.Address)
	for i, slot := range r.holderRoots {
		if na := r.h.Peek(slot); na != r.holders[i] {
			remap[r.holders[i]] = na
			r.holders[i] = na
		}
	}
	for i, slot := range r.longRoots {
		r.longLived[i] = r.h.Peek(slot)
	}
	if len(remap) > 0 {
		for i := range r.freeHolders {
			if na, ok := remap[r.freeHolders[i].arr]; ok {
				r.freeHolders[i].arr = na
			}
		}
		for i := range r.keepers {
			if k := &r.keepers[i]; k.root == 0 {
				if na, ok := remap[k.holder.arr]; ok {
					k.holder.arr = na
				}
			}
		}
	}
	for i := range r.keepers {
		k := &r.keepers[i]
		if k.root != 0 {
			k.head = r.h.Peek(k.root)
		} else {
			k.head = r.h.Peek(heap.SlotAddr(k.holder.arr, k.holder.off))
		}
	}
}

// appWork charges the mutator's own compute and memory traffic for a
// freshly allocated byte volume: CPU time, random reads walking the live
// graph, and streaming reads over the long-lived data set.
func (r *profileMutator) appWork(w *memsim.Worker, bytes int64) {
	kb := float64(bytes) / float64(clusterAppWorkQuantum)
	w.Advance(memsim.Time(float64(r.p.CPUNsPerKB) * kb))

	r.randReadDebt += r.p.RandReadsPerKB * kb
	for r.randReadDebt >= 1 {
		r.randReadDebt--
		if len(r.keepers) == 0 {
			break
		}
		k := r.keepers[r.rng.IntN(len(r.keepers))]
		if k.head == 0 {
			continue
		}
		// Walk up to two hops through the cluster.
		obj := k.head
		for hop := 0; hop < 2 && obj != 0; hop++ {
			if r.h.RegionOf(obj) == nil {
				break
			}
			next := r.h.ReadWord(w, heap.SlotAddr(obj, 2))
			if r.h.RegionOf(next) == nil {
				break
			}
			obj = next
		}
	}

	r.seqReadDebt += r.p.SeqKBPerKB * kb
	if r.seqReadDebt >= 1 && len(r.longLived) > 0 {
		n := int64(r.seqReadDebt) * 1024
		r.seqReadDebt -= float64(n) / 1024
		arr := r.longLived[r.rng.IntN(len(r.longLived))]
		max := int64(2048 * heap.WordBytes)
		if n > max {
			n = max
		}
		r.h.ReadRange(w, arr, n/heap.WordBytes)
	}
}
