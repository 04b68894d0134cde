package memsim

import "sort"

// refDomain is the persistence domain's line bookkeeping as it was before
// the line directory: a dirty and a pending map from line address to a
// heap-allocated shadow. The bodies below are that implementation,
// unchanged except for the receiver type and MaterializeCrash's machine
// bookkeeping; it is the reference model TestPersistDomainMatchesMapModel
// diffs the directory against.
type refShadow struct {
	words [LineSize / 8]uint64
	seq   int64
}

type refDomain struct {
	m    *Machine
	devs map[*Device]bool
	eADR bool

	peek   func(addr uint64) uint64
	poke   func(addr uint64, v uint64)
	lo, hi uint64

	dirty   map[uint64]*refShadow // line addr -> shadow (unpersisted)
	pending map[uint64]*refShadow // CLWB'd, awaiting fence
	free    []*refShadow          // shadows of persisted lines, reused by capture
	seq     int64
	stores  int64
	stats   PersistStats

	plan     *FaultPlan
	disabled bool
}

func newRefDomain(dev *Device, peek func(uint64) uint64, poke func(uint64, uint64), lo, hi uint64) *refDomain {
	return &refDomain{
		devs: map[*Device]bool{dev: true}, peek: peek, poke: poke, lo: lo, hi: hi,
		dirty:   make(map[uint64]*refShadow),
		pending: make(map[uint64]*refShadow),
	}
}

func (pd *refDomain) Stats() PersistStats {
	s := pd.stats
	s.TrackedStores = pd.stores
	s.DirtyLines = len(pd.dirty)
	s.PendingLines = len(pd.pending)
	return s
}

func (pd *refDomain) persisted(lines map[uint64]*refShadow, la uint64) bool {
	sh, ok := lines[la]
	if ok {
		delete(lines, la)
		pd.free = append(pd.free, sh)
	}
	return ok
}

func (pd *refDomain) tracks(dev *Device, addr uint64) bool {
	return !pd.disabled && pd.devs[dev] && pd.peek != nil && addr >= pd.lo && addr < pd.hi
}

func (pd *refDomain) capture(addr uint64, n int64) {
	first := addr &^ (LineSize - 1)
	last := (addr + uint64(n) - 1) &^ (LineSize - 1)
	for la := first; ; la += LineSize {
		if sh, ok := pd.pending[la]; ok {
			delete(pd.pending, la)
			pd.seq++
			sh.seq = pd.seq
			pd.dirty[la] = sh
		} else if sh, ok := pd.dirty[la]; ok {
			pd.seq++
			sh.seq = pd.seq
		} else {
			pd.seq++
			if k := len(pd.free); k > 0 {
				sh, pd.free = pd.free[k-1], pd.free[:k-1]
			} else {
				sh = new(refShadow)
			}
			sh.seq = pd.seq
			for i := range sh.words { // overwrites every word of a reused shadow
				sh.words[i] = pd.peek(la + uint64(i*8))
			}
			pd.dirty[la] = sh
		}
		if la == last {
			break
		}
	}
}

func (pd *refDomain) OnStore(dev *Device, addr uint64, n int64) {
	if n <= 0 || !pd.tracks(dev, addr) {
		return
	}
	pd.stores++
	if pd.plan != nil && pd.plan.CrashAtStore > 0 && pd.stores >= pd.plan.CrashAtStore {
		pd.m.triggerCrash(pd.m.now)
		panic(crashSignal{})
	}
	if pd.eADR {
		return
	}
	pd.capture(addr, n)
}

func (pd *refDomain) OnStoreQuiet(dev *Device, addr uint64, n int64) {
	if n <= 0 || pd.eADR || !pd.tracks(dev, addr) {
		return
	}
	pd.capture(addr, n)
}

func (pd *refDomain) OnNT(dev *Device, addr uint64, n int64) {
	if n <= 0 || !pd.tracks(dev, addr) {
		return
	}
	pd.stats.NTStores++
	if pd.eADR {
		return
	}
	first := addr &^ (LineSize - 1)
	if first < addr {
		first += LineSize // skip leading partial line
	}
	end := addr + uint64(n)
	for la := first; la+LineSize <= end; la += LineSize {
		pd.persisted(pd.dirty, la)
		pd.persisted(pd.pending, la)
	}
}

func (pd *refDomain) onEvict(dev *Device, lineAddr uint64) {
	if pd.disabled || !pd.devs[dev] || pd.eADR {
		return
	}
	if pd.persisted(pd.dirty, lineAddr) {
		pd.stats.EvictPersists++
	}
	pd.persisted(pd.pending, lineAddr)
}

func (pd *refDomain) onCLWB(dev *Device, lineAddr uint64) {
	if pd.disabled || !pd.devs[dev] {
		return
	}
	pd.stats.CLWBs++
	if pd.eADR {
		return
	}
	if sh, ok := pd.dirty[lineAddr]; ok {
		delete(pd.dirty, lineAddr)
		pd.pending[lineAddr] = sh
	}
}

func (pd *refDomain) isDirty(lineAddr uint64) bool {
	if pd.disabled {
		return false
	}
	_, ok := pd.dirty[lineAddr]
	return ok
}

func (pd *refDomain) onFence() {
	if pd.disabled {
		return
	}
	pd.stats.Fences++
	for _, sh := range pd.pending {
		pd.free = append(pd.free, sh)
	}
	clear(pd.pending)
}

func (pd *refDomain) DirtyLines() []uint64 {
	out := make([]uint64, 0, len(pd.dirty))
	for la := range pd.dirty {
		out = append(out, la)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (pd *refDomain) PersistAll() {
	pd.dirty = make(map[uint64]*refShadow)
	pd.pending = make(map[uint64]*refShadow)
}

// materialize is MaterializeCrash's image-building body for a crash at
// time t under plan.
func (pd *refDomain) materialize(plan FaultPlan, t Time) CrashReport {
	rep := CrashReport{Time: t}

	// Disable the hooks first: the reverting pokes below must not
	// re-capture shadows.
	pd.disabled = true

	// CLWB'd-but-unfenced lines: persisted only under KeepPending.
	toRevert := make(map[uint64]*refShadow, len(pd.dirty)+len(pd.pending))
	for la, sh := range pd.dirty {
		toRevert[la] = sh
	}
	if plan.KeepPending {
		rep.KeptLines += len(pd.pending)
	} else {
		for la, sh := range pd.pending {
			if _, ok := toRevert[la]; !ok {
				toRevert[la] = sh
			}
		}
	}

	// Crash frontier: the most recently dirtied unpersisted line.
	var frontier uint64
	var frontierSeq int64 = -1
	for la, sh := range toRevert {
		if sh.seq > frontierSeq || (sh.seq == frontierSeq && la > frontier) {
			frontier, frontierSeq = la, sh.seq
		}
	}

	if plan.TornLine && frontierSeq >= 0 {
		xp := frontier &^ (XPLineSize - 1)
		for la := xp; la < xp+XPLineSize; la += LineSize {
			sh, ok := toRevert[la]
			if !ok {
				continue
			}
			switch {
			case la < frontier:
				// The media write front already passed: persisted.
				delete(toRevert, la)
				rep.KeptLines++
			case la == frontier:
				// Torn: the first half of the line committed.
				for i := LineSize / 16; i < len(sh.words); i++ {
					pd.poke(la+uint64(i*8), sh.words[i])
				}
				delete(toRevert, la)
				rep.TornLine = true
				rep.TornLineAddr = la
				pd.stats.TornLines++
			}
		}
	}

	// Revert everything else, in address order for determinism.
	lines := make([]uint64, 0, len(toRevert))
	for la := range toRevert {
		lines = append(lines, la)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, la := range lines {
		sh := toRevert[la]
		for i := range sh.words {
			pd.poke(la+uint64(i*8), sh.words[i])
		}
	}
	rep.RevertedLines = len(lines)
	pd.stats.RevertedLines += len(lines)
	pd.stats.KeptLines += rep.KeptLines

	pd.dirty = make(map[uint64]*refShadow)
	pd.pending = make(map[uint64]*refShadow)
	return rep
}
