package gc

import (
	"fmt"

	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

// headerMapSearchBound is the closed-hashing probe limit: if no free or
// matching entry is found within this many probes, Put reports the map as
// full for that key and the caller installs the forwarding pointer in the
// NVM object header instead (Algorithm 1, lines 11-13). A short bound
// keeps the worst-case lookup cheap at the price of fallbacks once the
// map fills — which is exactly the size/performance trade-off Figure 10
// sweeps.
const headerMapSearchBound = 8

// HeaderMap is the paper's DRAM-resident, lock-free, closed-hashing map
// from an evacuated object's old address to its new address. It exists so
// forwarding pointers need not be written into NVM object headers, which
// removes a random NVM write (and a matching read) per copied object.
//
// The map lives in the heap's DRAM aux area: entry i occupies two words
// (key, value) at base + 16*i. It follows Algorithm 1 of the paper: keys
// are claimed with CAS; a claimed-but-unpublished entry makes racing
// readers spin until the value appears.
type HeaderMap struct {
	h       *heap.Heap
	base    heap.Address
	mask    uint64
	entries int
	used    int64
}

// NewHeaderMap builds a map bounded by the given DRAM budget (rounded
// down to a power-of-two entry count).
func NewHeaderMap(h *heap.Heap, budgetBytes int64) (*HeaderMap, error) {
	n := 1
	for int64(n*2)*16 <= budgetBytes {
		n *= 2
	}
	if int64(n)*16 > budgetBytes {
		return nil, fmt.Errorf("gc: header map budget %d below one entry", budgetBytes)
	}
	base, err := h.AllocAux(int64(n) * 16)
	if err != nil {
		return nil, fmt.Errorf("gc: header map: %w", err)
	}
	return &HeaderMap{h: h, base: base, mask: uint64(n - 1), entries: n}, nil
}

// Entries returns the map capacity in entries.
func (hm *HeaderMap) Entries() int { return hm.entries }

// Used returns the number of occupied entries.
func (hm *HeaderMap) Used() int64 { return hm.used }

func (hm *HeaderMap) hash(a heap.Address) uint64 {
	x := a
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x & hm.mask
}

func (hm *HeaderMap) keyAddr(idx uint64) heap.Address   { return hm.base + idx*16 }
func (hm *HeaderMap) valueAddr(idx uint64) heap.Address { return hm.base + idx*16 + 8 }

// Put installs old->new. It returns the address now recorded for old
// (new on success, the racing winner's address otherwise), or 0 when the
// bounded probe found no slot — the caller must fall back to the NVM
// header. Put never overwrites an existing entry for old.
func (hm *HeaderMap) Put(w *memsim.Worker, old, new heap.Address) heap.Address {
	p := hm.probe(old, new, true)
	return p.run(w)
}

// Get returns the new address recorded for old, or 0 if the map holds no
// entry (the caller must then consult the NVM header). The probe sequence
// and bound match Put so every entry Put could have used is searched;
// an empty key terminates early (entries are never deleted during GC).
func (hm *HeaderMap) Get(w *memsim.Worker, old heap.Address) heap.Address {
	p := hm.probe(old, 0, false)
	return p.run(w)
}

// hmProbe is one Put or Get in step form (see memsim.Worker.Steps):
// Algorithm 1 as a state machine, written once and driven either by the
// blocking run below or, operation by operation, by the drain machine
// (drain.go). Each step consumes the operation the previous one issued —
// the word it loaded is Peek-able at the settled position step runs at —
// and issues the next.
type hmProbe struct {
	hm       *HeaderMap
	old, new heap.Address
	put      bool
	idx      uint64
	cnt      int
	st       hmState

	// Once step reports false, result is the address recorded for old (new
	// or a racing winner's for a Put, the installed one for a Get; 0 when
	// the bounded probe found no entry), unless waiting: then entry idx is
	// claimed for old but its value not yet published, and the caller must
	// spin on it (spinValue) — which takes a coroutine of its own.
	result  heap.Address
	waiting bool
}

type hmState uint8

const (
	hmNextKey  hmState = iota // advance to the next entry and load its key
	hmKeyRead                 // key loaded: match, claim, skip, or end a Get
	hmCASWon                  // claim applied, its read charged: charge its write
	hmClaimed                 // claim charged: store the value
	hmValWrote                // value store charged: commit it
	hmCASLost                 // claim failed, its read charged: same object or not?
	hmValRead                 // value loaded: published yet?
)

func (hm *HeaderMap) probe(old, new heap.Address, put bool) hmProbe {
	return hmProbe{hm: hm, old: old, new: new, put: put, idx: hm.hash(old)}
}

// run drives the probe to its answer with blocking operations.
func (p *hmProbe) run(w *memsim.Worker) heap.Address {
	for p.step(w) {
		w.Exec()
	}
	if p.waiting {
		return p.hm.spinValue(w, p.idx)
	}
	return p.result
}

// step issues the probe's next operation on w and reports true, or reports
// false once the probe is over.
func (p *hmProbe) step(w *memsim.Worker) bool {
	hm, h := p.hm, p.hm.h
	for {
		key, val := hm.keyAddr(p.idx), hm.valueAddr(p.idx)
		switch p.st {
		case hmNextKey:
			if p.cnt == headerMapSearchBound {
				return false // no free or matching entry within the bound
			}
			p.cnt++
			p.idx = (p.idx + 1) & hm.mask
			h.IssueReadWord(w, hm.keyAddr(p.idx))
			p.st = hmKeyRead
			return true
		case hmKeyRead:
			switch probedKey := h.Peek(key); {
			case probedKey == p.old:
				// Entry belongs to old (installed or in flight).
				h.IssueReadWord(w, val)
				p.st = hmValRead
				return true
			case probedKey != 0:
				p.st = hmNextKey // occupied by another object
			case !p.put:
				return false // Get: an empty key ends the search
			default:
				cur, ok := h.IssueCAS(w, key, 0, p.old)
				p.result = cur // the witness, for hmCASLost
				p.st = hmCASLost
				if ok {
					p.st = hmCASWon
				}
				return true
			}
		case hmCASWon:
			h.IssueCASStore(w, key)
			p.st = hmClaimed
			return true
		case hmClaimed:
			// Claimed: publish the value.
			h.IssueWriteWord(w, val)
			p.st = hmValWrote
			return true
		case hmValWrote:
			h.CommitWord(val, p.new)
			hm.used++
			p.result = p.new
			return false
		case hmCASLost:
			if p.result != p.old {
				p.st = hmNextKey // lost the slot to a different object
				continue
			}
			// Another thread claimed this entry for the same object; wait
			// for it to publish.
			h.IssueReadWord(w, val)
			p.st = hmValRead
			return true
		case hmValRead:
			p.result = h.Peek(val)
			p.waiting = p.result == 0
			return false
		}
	}
}

// spinValue waits for the in-flight entry idx to publish its value: the
// tail of Algorithm 1's wait loop, after a first load found it still zero.
func (hm *HeaderMap) spinValue(w *memsim.Worker, idx uint64) heap.Address {
	for {
		w.Spin(40)
		if v := hm.h.ReadWord(w, hm.valueAddr(idx)); v != 0 {
			return v
		}
	}
}

// IssuePrefetchFor issues a software prefetch covering the first probe
// target for old (the paper extends the GC's prefetching to header-map
// lookups).
func (hm *HeaderMap) IssuePrefetchFor(w *memsim.Worker, old heap.Address) {
	idx := (hm.hash(old) + 1) & hm.mask
	w.IssuePrefetch(hm.h.AuxDevice(), hm.keyAddr(idx), 16, false)
}

// PeekEntry reads entry i's key and value words without charging virtual
// time (verification only; see check.HeaderMapView).
func (hm *HeaderMap) PeekEntry(i int) (key, val uint64) {
	return hm.h.Peek(hm.keyAddr(uint64(i))), hm.h.Peek(hm.valueAddr(uint64(i)))
}

// Reset zeroes every entry without charging virtual time. Crash recovery
// uses it: the DRAM-resident map does not survive a power failure, and
// stale forwarding entries left from the interrupted collection would
// corrupt the next one.
func (hm *HeaderMap) Reset() {
	for i := 0; i < hm.entries; i++ {
		hm.h.Poke(hm.keyAddr(uint64(i)), 0)
		hm.h.Poke(hm.valueAddr(uint64(i)), 0)
	}
	hm.used = 0
}

// ClearStripe zeroes the stripe of entries owned by worker id out of n,
// charging sequential DRAM writes. All GC threads clear the map in
// parallel at the end of a collection (Section 3.3).
func (hm *HeaderMap) ClearStripe(w *memsim.Worker, id, n int) {
	if n <= 0 {
		n = 1
	}
	per := (hm.entries + n - 1) / n
	lo := id * per
	hi := lo + per
	if hi > hm.entries {
		hi = hm.entries
	}
	if lo >= hi {
		return
	}
	for i := lo; i < hi; i++ {
		hm.h.Poke(hm.keyAddr(uint64(i)), 0)
		hm.h.Poke(hm.valueAddr(uint64(i)), 0)
	}
	w.Write(hm.h.AuxDevice(), hm.keyAddr(uint64(lo)), int64(hi-lo)*16, true)
	if id == 0 {
		hm.used = 0
	}
}
