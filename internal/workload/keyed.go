package workload

import (
	"fmt"

	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
	"nvmgc/internal/workload/generator"
)

// keyedMutator executes a Core scenario's op stream against the heap.
// The key population is an old-space index of reference-array "tables":
// key k lives in table slot k mod capacity, so the live window is the
// most recent `capacity` keys and inserts past it evict the oldest key
// (FIFO) — which makes insert-heavy mixes drift the hot set. Rows are
// heap objects; updates allocate a fresh row version and repoint the
// slot through the write barrier, so the previous version becomes
// garbage and remembered sets fill exactly where the request
// distribution concentrates. Reads charge the slot lookup plus a
// streaming read over the row. The op stream itself is generated purely
// from seeded generators — identical under every collector
// configuration.
type keyedMutator struct {
	h    *heap.Heap
	core *Core

	env      *Env
	routines []*coreRoutine
	nextR    int // round-robin cursor

	rowK, tableK *heap.Klass

	tables     []heap.Address
	tableRoots []heap.Address
	slotsPer   int64

	pending    Op
	hasPending bool

	done, budget int64 // ops completed / the scaled op budget
}

// newKeyedMutator initialises the scenario and its routines and defines
// the row and table klasses on h.
func newKeyedMutator(h *heap.Heap, core *Core, cfg Config) (*keyedMutator, error) {
	r := &keyedMutator{h: h, core: core}

	r.env = &Env{Seed: cfg.Seed, Scale: cfg.Scale, HeapBytes: h.HeapBytes()}
	if err := core.Init(r.env); err != nil {
		return nil, err
	}
	r.env.Keys = generator.NewAcknowledgedCounter(0)
	r.budget = max(int64(float64(r.env.Ops)*cfg.Scale), 1)

	var err error
	defineArr := func(kname string, elemRef bool) *heap.Klass {
		if k := h.Klasses.ByName(kname); k != nil {
			return k
		}
		var k *heap.Klass
		k, err = h.Klasses.DefineArray(kname, elemRef)
		return k
	}
	r.rowK = defineArr("kvrow[]", false)
	r.tableK = defineArr("kvtable[]", true)
	if err != nil {
		return nil, err
	}

	// One routine set up-front; NextOp draws round-robin across them so
	// the stream interleaving is fixed by configuration, not scheduling.
	r.routines = make([]*coreRoutine, r.env.Routines)
	for i := range r.routines {
		if r.routines[i], err = core.NewRoutine(r.env, i); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *keyedMutator) ops() int64 { return r.done }

// slotFor maps a key to its index slot.
func (r *keyedMutator) slotFor(key int64) (heap.Address, int64) {
	idx := key % r.env.Capacity
	return r.tables[idx/r.slotsPer], heap.HeaderWords + idx%r.slotsPer
}

// mutate applies the op stream until the budget is spent (false) or an
// op's allocation failed (true). The failed op stays pending and is
// retried after the collection — the stream is never redrawn.
func (r *keyedMutator) mutate(w *memsim.Worker, _ int) bool {
	for r.done < r.budget {
		if !r.hasPending {
			r.pending = r.routines[r.nextR].NextOp(r.env)
			r.nextR = (r.nextR + 1) % len(r.routines)
			r.hasPending = true
		}
		if !r.applyOp(w, r.pending) {
			return true
		}
		if r.pending.Kind == OpInsert {
			r.env.Keys.Acknowledge(r.pending.Key)
		}
		r.hasPending = false
		r.done++
	}
	return false
}

// setup allocates the old-space index tables and loads the initial
// population (rows go straight to old space: they are the pre-existing
// data set, not run-time garbage).
func (r *keyedMutator) setup(w *memsim.Worker) error {
	r.slotsPer = 256
	if r.slotsPer > r.env.Capacity {
		r.slotsPer = r.env.Capacity
	}
	nTables := (r.env.Capacity + r.slotsPer - 1) / r.slotsPer
	for i := int64(0); i < nTables; i++ {
		size := r.slotsPer + heap.HeaderWords
		if size%2 != 0 {
			size++
		}
		a, ok := r.h.AllocateOld(w, r.tableK, size)
		if !ok {
			return fmt.Errorf("old space cannot hold %d index tables: %v", nTables, r.h.AllocError())
		}
		slot, ok := r.h.Roots.Add(w, a)
		if !ok {
			return fmt.Errorf("root set full anchoring index tables")
		}
		r.tables = append(r.tables, a)
		r.tableRoots = append(r.tableRoots, slot)
	}
	for i := int64(0); i < r.env.Records; i++ {
		key := r.env.Keys.Next()
		row, ok := r.h.AllocateOld(w, r.rowK, r.core.rowWords(r.env.Seed, key))
		if !ok {
			return fmt.Errorf("old space cannot hold the %d-record population: %v",
				r.env.Records, r.h.AllocError())
		}
		r.h.Poke(heap.SlotAddr(row, 2), uint64(key))
		arr, off := r.slotFor(key)
		r.h.SetRef(w, arr, off, row)
		r.env.Keys.Acknowledge(key)
	}
	return nil
}

// applyOp executes one operation, charging its memory traffic. It
// returns false when an allocation failed.
func (r *keyedMutator) applyOp(w *memsim.Worker, op Op) bool {
	if r.core.OpCPUNs > 0 {
		w.Advance(memsim.Time(r.core.OpCPUNs))
	}
	switch op.Kind {
	case OpRead:
		r.readRow(w, op.Key)
	case OpUpdate:
		return r.writeRow(w, op.Key)
	case OpInsert:
		return r.writeRow(w, op.Key)
	case OpScan:
		limit := r.env.KeyCount()
		for i := int64(0); i < op.Span && op.Key+i < limit; i++ {
			r.readRow(w, op.Key+i)
		}
	case OpRMW:
		r.readRow(w, op.Key)
		return r.writeRow(w, op.Key)
	}
	return true
}

// readRow charges the index lookup and a streaming read over the row.
func (r *keyedMutator) readRow(w *memsim.Worker, key int64) {
	arr, off := r.slotFor(key)
	row := r.h.ReadWord(w, heap.SlotAddr(arr, off))
	if r.h.RegionOf(row) == nil {
		return // slot empty (key evicted between draw and apply)
	}
	r.h.ReadRange(w, row, r.core.rowWords(r.env.Seed, key))
}

// writeRow allocates a fresh row version in eden and repoints the index
// slot (write barrier → remembered set). The old version, if any,
// becomes garbage.
func (r *keyedMutator) writeRow(w *memsim.Worker, key int64) bool {
	row, ok := r.h.AllocateEden(w, r.rowK, r.core.rowWords(r.env.Seed, key))
	if !ok {
		return false
	}
	r.h.Poke(heap.SlotAddr(row, 2), uint64(key))
	arr, off := r.slotFor(key)
	r.h.SetRef(w, arr, off, row)
	return true
}

// refreshAfterGC re-reads the table addresses from their anchoring root
// slots: young collections leave old space alone, but a full GC moves
// the tables themselves.
func (r *keyedMutator) refreshAfterGC() {
	for i, slot := range r.tableRoots {
		r.tables[i] = r.h.Peek(slot)
	}
}
