package memsim

import (
	"cmp"
	"fmt"
	"slices"
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
	CrashAtStore int64

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

const (
	dirPageLines = 1 << 14 // lines per directory page: 1 MiB, the span of one heap chunk
	shadowBlock  = 1 << 10 // shadows per slab block
)

// lineShadow remembers an unpersisted line's address and last-persisted
// content, captured the first time the line leaves the persistence domain,
// plus a sequence number ordering dirtying events (the crash frontier is
// the line dirtied last).
type lineShadow struct {
	words [LineSize / 8]uint64
	la    uint64
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
	dev  *Device   // primary tracked device (the first enabled)
	devs []*Device // all tracked devices (see Track)
	eADR bool

	// peek/poke access the tracked backing store (the heap's word array)
	// without re-entering the domain's own hooks; lo/hi bound the tracked
	// address range.
	peek   func(addr uint64) uint64
	poke   func(addr uint64, v uint64)
	lo, hi uint64

	// dir is the line directory: one cell per line of [lo, hi), in pages
	// of dirPageLines allocated on first capture. A cell is 0 for a
	// persisted line, +s for a dirty one and -s for one CLWB'd and awaiting
	// the fence, its shadow in slot s. Slots live in fixed blocks (slot 0
	// unused, slots counts those handed out); free holds released slots for
	// capture to reuse, pending the slots CLWB'd since the last fence (an
	// entry whose cell no longer reads -s is stale).
	dir              [][]int32
	blocks           []*[shadowBlock]lineShadow
	slots            int32
	free, pending    []int32
	nDirty, nPending int
	seq              int64
	stores           int64
	stats            PersistStats

	plan     *FaultPlan
	disabled bool // set once a crash image has been materialized
}

// EnablePersist attaches a persistence domain tracking the given device
// (pass m.NVM; eADR puts the LLC inside the domain). It must be enabled
// before the tracked backing store (the heap) is created, so the heap can
// register its raw accessors via SetBacking. The hooks charge no virtual
// time, so enabling the domain cannot change any timing result.
func (m *Machine) EnablePersist(dev *Device, eADR bool) *PersistDomain {
	m.pipe.detach()
	pd := &PersistDomain{m: m, dev: dev, eADR: eADR, devs: []*Device{dev}, slots: 1}
	m.pd = pd
	m.LLC.onEvict = pd.onEvict
	return pd
}

// Track extends the persistence domain over another persistent device
// (e.g. a second NVM tier hosting the GC journal), so stores to it are
// shadow-tracked and crash-materialized exactly like the primary device.
// Tracking the primary device again is a no-op.
func (pd *PersistDomain) Track(dev *Device) {
	if !pd.Tracks(dev) {
		pd.devs = append(pd.devs, dev)
	}
}

// Tracks reports whether the domain covers dev.
func (pd *PersistDomain) Tracks(dev *Device) bool { return slices.Contains(pd.devs, dev) }

// Persist returns the machine's persistence domain, or nil.
func (m *Machine) Persist() *PersistDomain { return m.pd }

// EADR reports whether the LLC is inside the persistence domain.
func (pd *PersistDomain) EADR() bool { return pd.eADR }

// Device returns the tracked device.
func (pd *PersistDomain) Device() *Device { return pd.dev }

// SetBacking registers raw (hook-free) accessors for the tracked backing
// store and the tracked address range [lo, hi), which must be line-aligned.
// Stores outside it or to other devices are ignored; lines tracked under
// an earlier backing are declared persisted.
func (pd *PersistDomain) SetBacking(peek func(uint64) uint64, poke func(uint64, uint64), lo, hi uint64) {
	if lo > hi || lo%LineSize != 0 || hi%LineSize != 0 {
		panic(fmt.Sprintf("memsim: SetBacking range [%#x, %#x) is not line-aligned", lo, hi))
	}
	pd.PersistAll()
	pd.peek, pd.poke, pd.lo, pd.hi = peek, poke, lo, hi
	pd.dir = make([][]int32, ((hi-lo)/LineSize+dirPageLines-1)/dirPageLines)
}

// Stats returns a snapshot of the domain's counters.
func (pd *PersistDomain) Stats() PersistStats {
	s := pd.stats
	s.TrackedStores = pd.stores
	s.DirtyLines, s.PendingLines = pd.nDirty, pd.nPending
	return s
}

// cell returns line la's directory cell, or nil when la is outside the
// tracked range or its page was never captured into (the line is persisted).
func (pd *PersistDomain) cell(la uint64) *int32 {
	if la-pd.lo >= pd.hi-pd.lo {
		return nil
	}
	i := (la - pd.lo) / LineSize
	if p := pd.dir[i/dirPageLines]; p != nil {
		return &p[i%dirPageLines]
	}
	return nil
}

func (pd *PersistDomain) shadow(s int32) *lineShadow {
	return &pd.blocks[s/shadowBlock][s%shadowBlock]
}

// persisted releases the slot of a dirty or pending line that reached the
// persistence domain; capture reuses it.
func (pd *PersistDomain) persisted(c *int32) {
	s := *c
	if s > 0 {
		pd.nDirty--
	} else {
		s = -s
		pd.nPending--
	}
	*c = 0
	pd.free = append(pd.free, s)
}

// live calls f for every slot holding an unpersisted line, with its cell.
func (pd *PersistDomain) live(f func(s int32, c *int32)) {
	for s := int32(1); s < pd.slots; s++ {
		if c := pd.cell(pd.shadow(s).la); c != nil && (*c == s || *c == -s) {
			f(s, c)
		}
	}
}

// clip narrows the range [addr, addr+n) of a hook on dev to the tracked
// range; ok is false when nothing of it is tracked.
func (pd *PersistDomain) clip(dev *Device, addr uint64, n int64) (from, to uint64, ok bool) {
	if n <= 0 || pd.disabled || !pd.Tracks(dev) {
		return 0, 0, false
	}
	end := addr + uint64(n)
	if end < addr {
		end = pd.hi // wrapped past 2^64
	}
	from, to = max(addr, pd.lo), min(end, pd.hi)
	return from, to, from < to
}

// capture records shadows for every line of [from, to) not already dirty.
// A line re-stored while pending moves back to dirty but keeps its
// original shadow (its last-persisted content is unchanged until a fence).
func (pd *PersistDomain) capture(from, to uint64) {
	for la := from &^ (LineSize - 1); la < to; la += LineSize {
		i := (la - pd.lo) / LineSize
		p := pd.dir[i/dirPageLines]
		if p == nil {
			p = make([]int32, dirPageLines)
			pd.dir[i/dirPageLines] = p
		}
		c := &p[i%dirPageLines]
		pd.seq++
		s := *c
		switch {
		case s < 0:
			s = -s
			*c = s
			pd.nPending--
			pd.nDirty++
		case s == 0:
			if k := len(pd.free); k > 0 {
				s, pd.free = pd.free[k-1], pd.free[:k-1]
			} else {
				if int(pd.slots/shadowBlock) == len(pd.blocks) {
					pd.blocks = append(pd.blocks, new([shadowBlock]lineShadow))
				}
				s = pd.slots
				pd.slots++
			}
			sh := pd.shadow(s)
			sh.la = la
			for k := range sh.words { // overwrites every word of a reused shadow
				sh.words[k] = pd.peek(la + uint64(k*8))
			}
			*c = s
			pd.nDirty++
		}
		pd.shadow(s).seq = pd.seq
	}
}

// OnStore is the hook for a cached store of n bytes about to be applied to
// the backing store. It fires the Nth-store fault trigger (the crash
// strikes *before* the triggering store takes effect) and, in ADR mode,
// captures shadows for newly-dirtied lines. Charged no virtual time.
func (pd *PersistDomain) OnStore(dev *Device, addr uint64, n int64) {
	from, to, ok := pd.clip(dev, addr, n)
	if !ok {
		return
	}
	pd.stores++
	if pd.plan != nil && pd.plan.CrashAtStore > 0 && pd.stores >= pd.plan.CrashAtStore {
		pd.m.triggerCrash(pd.m.now)
		panic(crashSignal{})
	}
	if pd.eADR {
		return // LLC is persistent: the store is durable at execution
	}
	pd.capture(from, to)
}

// OnStoreQuiet captures shadows like OnStore but neither counts the store
// nor fires fault triggers. Used for uncharged setup writes (Poke) so the
// post-crash image stays faithful without perturbing trigger points.
func (pd *PersistDomain) OnStoreQuiet(dev *Device, addr uint64, n int64) {
	if from, to, ok := pd.clip(dev, addr, n); ok && !pd.eADR {
		pd.capture(from, to)
	}
}

// OnNT marks [addr, addr+n) persisted by a non-temporal store: NT stores
// go straight to the device's write-pending queue, which ADR drains on
// power fail. Lines only partially covered by the range keep their
// shadows (the cached remainder is still volatile).
func (pd *PersistDomain) OnNT(dev *Device, addr uint64, n int64) {
	from, to, ok := pd.clip(dev, addr, n)
	if !ok {
		return
	}
	pd.stats.NTStores++
	if pd.eADR {
		return
	}
	for la := (from + LineSize - 1) &^ (LineSize - 1); la+LineSize <= to; la += LineSize {
		if c := pd.cell(la); c != nil && *c != 0 {
			pd.persisted(c)
		}
	}
}

// onEvict is installed as the LLC's dirty-eviction hook: the written-back
// line reaches the device write queue and is persisted.
func (pd *PersistDomain) onEvict(dev *Device, lineAddr uint64) {
	if pd.disabled || pd.eADR || !pd.Tracks(dev) {
		return
	}
	if c := pd.cell(lineAddr); c != nil && *c != 0 {
		if *c > 0 {
			pd.stats.EvictPersists++
		}
		pd.persisted(c)
	}
}

// onCLWB moves a dirty line to pending (flushed, awaiting the fence).
func (pd *PersistDomain) onCLWB(dev *Device, lineAddr uint64) {
	if pd.disabled || !pd.Tracks(dev) {
		return
	}
	pd.stats.CLWBs++
	if pd.eADR {
		return
	}
	if c := pd.cell(lineAddr); c != nil && *c > 0 {
		pd.pending = append(pd.pending, *c)
		*c = -*c
		pd.nDirty--
		pd.nPending++
	}
}

// isDirty reports whether the line is outside the persistence domain.
func (pd *PersistDomain) isDirty(lineAddr uint64) bool {
	c := pd.cell(lineAddr)
	return !pd.disabled && c != nil && *c > 0
}

// onFence commits all pending (CLWB'd) lines to the persistence domain:
// only slots still pending, not those re-dirtied or already persisted.
func (pd *PersistDomain) onFence() {
	if pd.disabled {
		return
	}
	pd.stats.Fences++
	for _, s := range pd.pending {
		if c := pd.cell(pd.shadow(s).la); *c == -s {
			pd.persisted(c)
		}
	}
	pd.pending = pd.pending[:0]
}

// DirtyLines returns the addresses of all unpersisted lines in ascending
// order.
func (pd *PersistDomain) DirtyLines() []uint64 {
	out := make([]uint64, 0, pd.nDirty)
	pd.live(func(s int32, c *int32) {
		if *c > 0 {
			out = append(out, pd.shadow(s).la)
		}
	})
	slices.Sort(out)
	return out
}

// PersistAll declares the entire backing store persisted, charging no
// virtual time. Harnesses call it to model an application-level quiesce
// point (e.g. "the mutator's data was durable when GC began").
func (pd *PersistDomain) PersistAll() {
	pd.live(func(_ int32, c *int32) { pd.persisted(c) })
	pd.pending = pd.pending[:0]
}

// InjectFault arms a fault plan on the machine. The time trigger fires at
// the first worker operation at or past the plan's virtual time; the
// store trigger fires inside the persistence domain's store hook. Either
// way every worker unwinds, Run returns, and Machine.Crashed() reports
// true until MaterializeCrash is called. A plan with neither trigger set
// disarms whatever plan is armed and has not fired.
func (m *Machine) InjectFault(plan FaultPlan) {
	m.pipe.detach()
	var p *FaultPlan
	if plan.CrashAtTime > 0 || plan.CrashAtStore > 0 {
		p = &plan
	}
	m.fault = p
	m.faultTime = plan.CrashAtTime
	if m.pd != nil {
		m.pd.plan = p
	}
}

// Crashed reports whether an injected fault has fired and the post-crash
// image has not yet been materialized.
func (m *Machine) Crashed() bool { return m.crashed }

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
	var revert []int32
	pd.live(func(s int32, c *int32) {
		if *c > 0 || !plan.KeepPending {
			revert = append(revert, s)
		}
	})
	if plan.KeepPending {
		rep.KeptLines += pd.nPending
	}
	slices.SortFunc(revert, func(a, b int32) int { return cmp.Compare(pd.shadow(a).la, pd.shadow(b).la) })

	// Crash frontier: the most recently dirtied unpersisted line.
	frontier := -1
	for i, s := range revert {
		if frontier < 0 || pd.shadow(s).seq >= pd.shadow(revert[frontier]).seq {
			frontier = i
		}
	}

	if plan.TornLine && frontier >= 0 {
		// Lines of the frontier's XPLine before it persisted (the media
		// write front already passed); the frontier keeps its first half.
		sh := pd.shadow(revert[frontier])
		first := frontier
		for first > 0 && pd.shadow(revert[first-1]).la >= sh.la&^(XPLineSize-1) {
			first--
		}
		rep.KeptLines += frontier - first
		for i := LineSize / 16; i < len(sh.words); i++ {
			pd.poke(sh.la+uint64(i*8), sh.words[i])
		}
		rep.TornLine, rep.TornLineAddr = true, sh.la
		pd.stats.TornLines++
		revert = append(revert[:first], revert[frontier+1:]...)
	}

	// Revert everything else, in address order for determinism.
	for _, s := range revert {
		sh := pd.shadow(s)
		for i := range sh.words {
			pd.poke(sh.la+uint64(i*8), sh.words[i])
		}
	}
	rep.RevertedLines = len(revert)
	pd.stats.RevertedLines += len(revert)
	pd.stats.KeptLines += rep.KeptLines
	pd.PersistAll()

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
