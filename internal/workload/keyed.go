package workload

import (
	"fmt"

	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
	"nvmgc/internal/workload/generator"
)

// keyedMutator draws a Core scenario's op stream and executes it against
// the heap. The key population is an old-space index of reference-array
// "tables": key k lives in table slot k mod Records, so the live window
// is the most recent Records keys and inserts past it evict the oldest
// key (FIFO) — which makes insert-heavy mixes drift the hot set. Rows are
// heap objects; updates allocate a fresh row version and repoint the
// slot through the write barrier, so the previous version becomes
// garbage and remembered sets fill exactly where the request
// distribution concentrates. Reads charge the slot lookup plus a
// streaming read over the row.
//
// The op stream comes from seeded generators and the key counter alone,
// never from heap or collector state, so it is identical under every
// collector configuration.
type keyedMutator struct {
	h    *heap.Heap
	core Core
	seed uint64

	// keys is the insert-key sequence. Last() is the newest *completed*
	// insert, so recency distributions never select a key whose row is
	// not on the heap yet.
	keys *generator.AcknowledgedCounter

	mix     *generator.Uniform // op-mix selector (drawn as millionths)
	scanLen *generator.Uniform // nil unless the mix scans
	// One request generator, the one Core.Request names.
	uni       *generator.Uniform
	zipf      *generator.Zipfian
	scrambled *generator.ScrambledZipfian
	hot       *generator.Hotspot
	exp       *generator.Exponential
	latest    *generator.Latest

	rowK, tableK *heap.Klass

	tables     []heap.Address
	tableRoots []heap.Address
	slotsPer   int64

	pending    keyedOp
	hasPending bool

	done, budget int64 // ops completed / the scaled op budget
}

// opKind enumerates keyed operations.
type opKind uint8

const (
	opRead   opKind = iota // read the whole row of one key
	opUpdate               // write a fresh row version (the old one becomes garbage)
	opInsert               // add a new key to the population
	opScan                 // read span consecutive keys' rows
	opRMW                  // read one key's row, then write a fresh version
)

// keyedOp is one drawn operation. key is a logical key number; for
// opInsert it is the freshly assigned key.
type keyedOp struct {
	kind      opKind
	key, span int64
}

// keyStream namespaces the op stream's RNG lanes off the run seed.
func keyStream(lane int) uint64 { return uint64(lane) | 0x5ce4a410<<32 }

// newKeyedMutator builds the scenario's generators and defines the row
// and table klasses on h.
func newKeyedMutator(h *heap.Heap, core Core, cfg Config) (*keyedMutator, error) {
	if err := core.Validate(); err != nil {
		return nil, err
	}
	r := &keyedMutator{h: h, core: core, seed: cfg.Seed, keys: generator.NewAcknowledgedCounter(0)}
	r.budget = max(int64(float64(core.Ops)*cfg.Scale), 1)

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

	if r.mix, err = generator.NewUniform(generator.NewRand(cfg.Seed, keyStream(0)), 0, 999_999); err != nil {
		return nil, err
	}
	rng := generator.NewRand(cfg.Seed, keyStream(1))
	switch core.Request {
	case DistUniform:
		r.uni, err = generator.NewUniform(rng, 0, r.windowSize()-1)
	case DistZipfian:
		r.zipf, err = generator.NewZipfian(rng, 0, r.windowSize()-1, core.Theta)
	case DistScrambled:
		r.scrambled, err = generator.NewScrambledZipfian(rng, 0, r.windowSize()-1)
	case DistHotspot:
		r.hot, err = generator.NewHotspot(rng, 0, r.windowSize()-1, hotsetFrac, hotOpnFrac)
	case DistExponential:
		r.exp, err = generator.NewExponential(rng, expPercentile, float64(core.Records), expFrac)
	case DistLatest:
		r.latest, err = generator.NewLatest(rng, r.keys)
	}
	if err != nil {
		return nil, err
	}
	if core.ScanProp > 0 {
		if r.scanLen, err = generator.NewUniform(generator.NewRand(cfg.Seed, keyStream(2)), 1, maxScanLen); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *keyedMutator) ops() int64 { return r.done }

// keyCount returns how many keys have ever been handed out.
func (r *keyedMutator) keyCount() int64 { return r.keys.Last() + 1 }

// windowSize returns the live-window width: the number of keys request
// distributions may select from.
func (r *keyedMutator) windowSize() int64 {
	return max(min(r.keyCount(), r.core.Records), 1)
}

// windowStart returns the oldest live key.
func (r *keyedMutator) windowStart() int64 {
	return max(r.keyCount()-r.core.Records, 0)
}

// chooseKey draws one live key under the request distribution.
func (r *keyedMutator) chooseKey() int64 {
	domain := r.windowSize()
	start := r.windowStart()
	switch r.core.Request {
	case DistUniform:
		r.uni.SetRange(0, domain-1)
		return start + r.uni.Next()
	case DistZipfian:
		// Rank 0 (hottest) pins to the oldest live key: stable hot keys
		// for fixed populations, hot-set drift once inserts slide the
		// window — both are access patterns the sweep wants.
		r.zipf.ForItems(domain)
		return start + r.zipf.Next()
	case DistScrambled:
		r.scrambled.ForItems(domain)
		return start + r.scrambled.Next()
	case DistHotspot:
		r.hot.SetRange(0, domain-1)
		return start + r.hot.Next()
	case DistExponential:
		// Exponential distance back from the newest key (YCSB's reading).
		return r.keys.Last() - r.exp.Next()%domain
	default: // DistLatest
		return max(r.latest.Next(), start) // a zipfian tail past the window reads the oldest key
	}
}

// nextOp draws the next operation.
func (r *keyedMutator) nextOp() keyedOp {
	x := float64(r.mix.Next()) / 1_000_000
	c := r.core
	switch {
	case x < c.ReadProp:
		return keyedOp{kind: opRead, key: r.chooseKey()}
	case x < c.ReadProp+c.UpdateProp:
		return keyedOp{kind: opUpdate, key: r.chooseKey()}
	case x < c.ReadProp+c.UpdateProp+c.InsertProp:
		return keyedOp{kind: opInsert, key: r.keys.Next()}
	case x < c.ReadProp+c.UpdateProp+c.InsertProp+c.ScanProp:
		return keyedOp{kind: opScan, key: r.chooseKey(), span: r.scanLen.Next()}
	default:
		return keyedOp{kind: opRMW, key: r.chooseKey()}
	}
}

// slotFor maps a key to its index slot.
func (r *keyedMutator) slotFor(key int64) (heap.Address, int64) {
	idx := key % r.core.Records
	return r.tables[idx/r.slotsPer], heap.HeaderWords + idx%r.slotsPer
}

// mutate applies the op stream until the budget is spent (false) or an
// op's allocation failed (true). The failed op stays pending and is
// retried after the collection — the stream is never redrawn.
func (r *keyedMutator) mutate(w *memsim.Worker, _ int) bool {
	for r.done < r.budget {
		if !r.hasPending {
			r.pending = r.nextOp()
			r.hasPending = true
		}
		if !r.applyOp(w, r.pending) {
			return true
		}
		if r.pending.kind == opInsert {
			r.keys.Acknowledge(r.pending.key)
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
	records := r.core.Records
	r.slotsPer = min(256, records)
	nTables := (records + r.slotsPer - 1) / r.slotsPer
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
	for i := int64(0); i < records; i++ {
		key := r.keys.Next()
		row, ok := r.h.AllocateOld(w, r.rowK, rowWords(r.seed, key))
		if !ok {
			return fmt.Errorf("old space cannot hold the %d-record population: %v", records, r.h.AllocError())
		}
		r.h.Poke(heap.SlotAddr(row, 2), uint64(key))
		arr, off := r.slotFor(key)
		r.h.SetRef(w, arr, off, row)
		r.keys.Acknowledge(key)
	}
	return nil
}

// applyOp executes one operation, charging its memory traffic. It
// returns false when an allocation failed.
func (r *keyedMutator) applyOp(w *memsim.Worker, op keyedOp) bool {
	w.Advance(opCPUNs)
	switch op.kind {
	case opRead:
		r.readRow(w, op.key)
	case opUpdate, opInsert:
		return r.writeRow(w, op.key)
	case opScan:
		limit := r.keyCount()
		for i := int64(0); i < op.span && op.key+i < limit; i++ {
			r.readRow(w, op.key+i)
		}
	case opRMW:
		r.readRow(w, op.key)
		return r.writeRow(w, op.key)
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
	r.h.ReadRange(w, row, rowWords(r.seed, key))
}

// writeRow allocates a fresh row version in eden and repoints the index
// slot (write barrier → remembered set). The old version, if any,
// becomes garbage.
func (r *keyedMutator) writeRow(w *memsim.Worker, key int64) bool {
	row, ok := r.h.AllocateEden(w, r.rowK, rowWords(r.seed, key))
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
