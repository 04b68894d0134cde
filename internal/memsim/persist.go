package memsim

import (
	"fmt"
	"sort"
)

// XPLineSize is the NVM media write unit (the 3D-XPoint 256 B XPLine).
// A power failure can tear a write at this granularity: the media commits
// a prefix of the XPLine the controller was draining when power was lost.
const XPLineSize = 256

// FaultPlan describes one injected power failure. All trigger points are
// expressed in virtual time or virtual store counts, so a crash campaign
// is bit-reproducible: re-running the same plan on the same machine and
// workload reproduces the same post-crash image.
type FaultPlan struct {
	// CrashAtTime kills the machine at the first worker operation whose
	// start time is >= this virtual time. 0 disables the time trigger.
	CrashAtTime Time

	// CrashAtStore kills the machine immediately before the Nth tracked
	// store (1-based) to the persistence domain's device. 0 disables.
	// If StoreLo < StoreHi, only stores whose address falls inside
	// [StoreLo, StoreHi) are counted ("the Nth write to a region").
	CrashAtStore     int64
	StoreLo, StoreHi uint64

	// TornLine tears the 256 B XPLine at the crash frontier (the most
	// recently dirtied unpersisted line): lines of that XPLine before the
	// frontier persist fully, the frontier line persists only its first
	// 32 bytes, lines after it revert. Without TornLine, whole 64 B lines
	// either persist or revert.
	TornLine bool

	// KeepPending treats lines that were CLWB'd but not yet fenced as
	// persisted (the weakest outcome ADR hardware may still deliver:
	// flushes in flight at power-fail can complete from residual charge).
	// The default — reverting them — is the guaranteed-by-spec outcome.
	KeepPending bool
}

// active reports whether the plan has any trigger armed.
func (p FaultPlan) active() bool { return p.CrashAtTime > 0 || p.CrashAtStore > 0 }

// PersistStats counts persistence-domain traffic and crash outcomes.
type PersistStats struct {
	TrackedStores int64 // cached stores to the tracked device
	NTStores      int64 // non-temporal store ranges (persist at fence/WPQ)
	CLWBs         int64 // explicit cache-line write-backs issued
	Fences        int64 // persist fences (SFENCE after CLWB)
	EvictPersists int64 // lines persisted by LLC dirty eviction
	DirtyLines    int   // lines currently outside the persistence domain
	PendingLines  int   // lines CLWB'd but not yet fenced

	// Crash materialization outcomes (set by MaterializeCrash).
	RevertedLines int
	KeptLines     int // dirty lines kept by torn-XPLine or KeepPending
	TornLines     int // 0 or 1: the half-persisted frontier line
}

// lineShadow remembers a dirty line's last-persisted content, captured the
// first time the line leaves the persistence domain, plus a sequence
// number ordering first-dirtying events (the crash frontier is the line
// dirtied last).
type lineShadow struct {
	words [LineSize / 8]uint64
	seq   int64
}

// PersistDomain models which cache lines of one device (the NVM) have
// reached the persistence domain. In the default ADR mode only the
// device's write-pending queue is persistent: a cached store leaves the
// domain until the line is written back — by dirty LLC eviction, by an
// explicit CLWB + fence, or by a non-temporal store. In eADR mode the LLC
// itself is inside the domain, so every store persists at execution and
// CLWB degenerates to a no-op.
//
// The domain keeps a shadow copy of every unpersisted line so that an
// injected power failure can materialize the post-crash image: persisted
// lines keep their contents, unpersisted lines revert to their shadows,
// and optionally the XPLine at the crash frontier tears.
type PersistDomain struct {
	m    *Machine
	dev  *Device          // primary tracked device (the first enabled)
	devs map[*Device]bool // all tracked devices (see Track)
	eADR bool

	// peek/poke access the tracked backing store (the heap's word array)
	// without re-entering the domain's own hooks; lo/hi bound the tracked
	// address range.
	peek   func(addr uint64) uint64
	poke   func(addr uint64, v uint64)
	lo, hi uint64

	dirty   map[uint64]*lineShadow // line addr -> shadow (unpersisted)
	pending map[uint64]*lineShadow // CLWB'd, awaiting fence
	free    []*lineShadow          // shadows of persisted lines, reused by capture
	seq     int64
	stores  int64
	stats   PersistStats

	plan     *FaultPlan
	disabled bool // set once a crash image has been materialized
}

// EnablePersist attaches a persistence domain tracking the given device
// (pass m.NVM; eADR puts the LLC inside the domain). It must be enabled
// before the tracked backing store (the heap) is created, so the heap can
// register its raw accessors via SetBacking. The hooks charge no virtual
// time, so enabling the domain cannot change any timing result.
func (m *Machine) EnablePersist(dev *Device, eADR bool) *PersistDomain {
	pd := &PersistDomain{
		m: m, dev: dev, eADR: eADR,
		devs:    map[*Device]bool{dev: true},
		dirty:   make(map[uint64]*lineShadow),
		pending: make(map[uint64]*lineShadow),
	}
	m.pd = pd
	m.LLC.onEvict = pd.onEvict
	return pd
}

// Track extends the persistence domain over another persistent device
// (e.g. a second NVM tier hosting the GC journal), so stores to it are
// shadow-tracked and crash-materialized exactly like the primary device.
// Tracking the primary device again is a no-op.
func (pd *PersistDomain) Track(dev *Device) {
	pd.devs[dev] = true
}

// Tracks reports whether the domain covers dev.
func (pd *PersistDomain) Tracks(dev *Device) bool { return pd.devs[dev] }

// Persist returns the machine's persistence domain, or nil.
func (m *Machine) Persist() *PersistDomain { return m.pd }

// EADR reports whether the LLC is inside the persistence domain.
func (pd *PersistDomain) EADR() bool { return pd.eADR }

// Device returns the tracked device.
func (pd *PersistDomain) Device() *Device { return pd.dev }

// SetBacking registers raw (hook-free) accessors for the tracked backing
// store and the tracked address range. Stores outside [lo, hi) or to
// other devices are ignored.
func (pd *PersistDomain) SetBacking(peek func(uint64) uint64, poke func(uint64, uint64), lo, hi uint64) {
	pd.peek, pd.poke, pd.lo, pd.hi = peek, poke, lo, hi
}

// Stats returns a snapshot of the domain's counters.
func (pd *PersistDomain) Stats() PersistStats {
	s := pd.stats
	s.TrackedStores = pd.stores
	s.DirtyLines = len(pd.dirty)
	s.PendingLines = len(pd.pending)
	return s
}

// persisted drops a line that reached the persistence domain from the
// given map; its shadow is no longer referenced and goes back to capture.
func (pd *PersistDomain) persisted(lines map[uint64]*lineShadow, la uint64) bool {
	sh, ok := lines[la]
	if ok {
		delete(lines, la)
		pd.free = append(pd.free, sh)
	}
	return ok
}

func (pd *PersistDomain) tracks(dev *Device, addr uint64) bool {
	return !pd.disabled && pd.devs[dev] && pd.peek != nil && addr >= pd.lo && addr < pd.hi
}

// capture records shadows for every line of [addr, addr+n) not already
// dirty. A line re-stored while pending moves back to dirty but keeps its
// original shadow (its last-persisted content is unchanged until a fence).
func (pd *PersistDomain) capture(addr uint64, n int64) {
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
				sh = new(lineShadow)
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

// OnStore is the hook for a cached store of n bytes about to be applied to
// the backing store. It fires the Nth-store fault trigger (the crash
// strikes *before* the triggering store takes effect) and, in ADR mode,
// captures shadows for newly-dirtied lines. Charged no virtual time.
func (pd *PersistDomain) OnStore(dev *Device, addr uint64, n int64) {
	if n <= 0 || !pd.tracks(dev, addr) {
		return
	}
	if pd.plan != nil && pd.plan.CrashAtStore > 0 {
		counted := pd.plan.StoreLo >= pd.plan.StoreHi ||
			(addr >= pd.plan.StoreLo && addr < pd.plan.StoreHi)
		if counted {
			pd.stores++
			if pd.stores >= pd.plan.CrashAtStore {
				pd.m.triggerCrash(pd.m.now)
				panic(crashSignal{})
			}
		}
	} else {
		pd.stores++
	}
	if pd.eADR {
		return // LLC is persistent: the store is durable at execution
	}
	pd.capture(addr, n)
}

// OnStoreQuiet captures shadows like OnStore but neither counts the store
// nor fires fault triggers. Used for uncharged setup writes (Poke) so the
// post-crash image stays faithful without perturbing trigger points.
func (pd *PersistDomain) OnStoreQuiet(dev *Device, addr uint64, n int64) {
	if n <= 0 || pd.eADR || !pd.tracks(dev, addr) {
		return
	}
	pd.capture(addr, n)
}

// OnNT marks [addr, addr+n) persisted by a non-temporal store: NT stores
// go straight to the device's write-pending queue, which ADR drains on
// power fail. Lines only partially covered by the range keep their
// shadows (the cached remainder is still volatile).
func (pd *PersistDomain) OnNT(dev *Device, addr uint64, n int64) {
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

// onEvict is installed as the LLC's dirty-eviction hook: the written-back
// line reaches the device write queue and is persisted.
func (pd *PersistDomain) onEvict(dev *Device, lineAddr uint64) {
	if pd.disabled || !pd.devs[dev] || pd.eADR {
		return
	}
	if pd.persisted(pd.dirty, lineAddr) {
		pd.stats.EvictPersists++
	}
	pd.persisted(pd.pending, lineAddr)
}

// onCLWB moves a dirty line to pending (flushed, awaiting the fence).
func (pd *PersistDomain) onCLWB(dev *Device, lineAddr uint64) {
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

// isDirty reports whether the line is outside the persistence domain.
func (pd *PersistDomain) isDirty(lineAddr uint64) bool {
	if pd.disabled {
		return false
	}
	_, ok := pd.dirty[lineAddr]
	return ok
}

// onFence commits all pending (CLWB'd) lines to the persistence domain.
func (pd *PersistDomain) onFence() {
	if pd.disabled {
		return
	}
	pd.stats.Fences++
	for _, sh := range pd.pending {
		pd.free = append(pd.free, sh)
	}
	clear(pd.pending)
}

// DirtyLines returns the addresses of all unpersisted lines in ascending
// order (deterministic; map iteration order never escapes the domain).
func (pd *PersistDomain) DirtyLines() []uint64 {
	out := make([]uint64, 0, len(pd.dirty))
	for la := range pd.dirty {
		out = append(out, la)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PersistAll declares the entire backing store persisted, charging no
// virtual time. Harnesses call it to model an application-level quiesce
// point (e.g. "the mutator's data was durable when GC began").
func (pd *PersistDomain) PersistAll() {
	pd.dirty = make(map[uint64]*lineShadow)
	pd.pending = make(map[uint64]*lineShadow)
}

// InjectFault arms a fault plan on the machine. The time trigger fires at
// the first worker operation at or past the plan's virtual time; the
// store trigger fires inside the persistence domain's store hook. Either
// way every worker unwinds, Run returns, and Machine.Crashed() reports
// true until MaterializeCrash is called.
func (m *Machine) InjectFault(plan FaultPlan) {
	p := plan
	m.fault = &p
	if p.CrashAtTime > 0 {
		m.faultTime = p.CrashAtTime
	}
	if m.pd != nil {
		m.pd.plan = &p
	}
}

// Crashed reports whether an injected fault has fired and the post-crash
// image has not yet been materialized.
func (m *Machine) Crashed() bool { return m.crashed }

// CrashTime returns the virtual time at which the fault fired.
func (m *Machine) CrashTime() Time { return m.crashTime }

// triggerCrash halts the machine: every subsequent worker operation
// unwinds via crashSignal, so Run drains and returns.
func (m *Machine) triggerCrash(t Time) {
	if m.crashed {
		return
	}
	m.crashed = true
	m.crashTime = t
	m.halted = true
	m.faultTime = 0
}

// CrashReport summarizes a materialized post-crash NVM image.
type CrashReport struct {
	Time          Time
	RevertedLines int
	KeptLines     int
	TornLine      bool
	TornLineAddr  uint64
}

// MaterializeCrash turns the backing store into the post-crash NVM image:
// persisted lines keep their contents, unpersisted lines revert to their
// shadows, and with FaultPlan.TornLine the XPLine at the crash frontier
// tears (earlier lines persist, the frontier line keeps only its first
// 32 bytes, later lines revert). Entry-aligned 16/32-byte structures
// therefore never straddle the tear point. Afterwards the machine is
// "rebooted": tracking is disabled, the halt is cleared, and Run works
// again for a recovery pass.
func (m *Machine) MaterializeCrash() (CrashReport, error) {
	if !m.crashed {
		return CrashReport{}, fmt.Errorf("memsim: MaterializeCrash without a fired fault")
	}
	pd := m.pd
	if pd == nil || pd.peek == nil {
		return CrashReport{}, fmt.Errorf("memsim: MaterializeCrash needs an enabled persistence domain with a registered backing")
	}
	plan := FaultPlan{}
	if m.fault != nil {
		plan = *m.fault
	}
	rep := CrashReport{Time: m.crashTime}

	// Disable the hooks first: the reverting pokes below must not
	// re-capture shadows.
	pd.disabled = true

	// CLWB'd-but-unfenced lines: persisted only under KeepPending.
	toRevert := make(map[uint64]*lineShadow, len(pd.dirty)+len(pd.pending))
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

	pd.dirty = make(map[uint64]*lineShadow)
	pd.pending = make(map[uint64]*lineShadow)

	// Reboot: the machine can run a recovery pass.
	m.crashed = false
	m.halted = false
	m.fault = nil
	m.faultTime = 0
	return rep, nil
}

// crashSignal unwinds a worker body when the machine halts. It is
// recovered by the scheduler's body wrapper, never by user code.
type crashSignal struct{}
