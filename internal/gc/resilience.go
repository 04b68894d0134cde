package gc

import (
	"errors"
	"fmt"

	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

// ErrTierExhausted is returned (wrapped) when the collector needs a
// destination region and no healthy tier can supply one: the free pool is
// empty — wear retirement permanently removes regions from it — and every
// fallback tier is degraded or gone. Until that point, placement degrades
// gracefully: claims on a degraded tier re-route to the next healthy tier
// in placement-policy order instead of failing the collection.
var ErrTierExhausted = errors.New("gc: every tier exhausted or degraded, no healthy region available")

const (
	// maxFaultRetries bounds the exponential-backoff retry loop of a
	// transiently faulting read before the collection is failed.
	maxFaultRetries = 6
	// faultBackoffBase is the first retry's backoff in virtual ns; each
	// further attempt doubles it.
	faultBackoffBase = memsim.Time(64)
	// maxCopyReroutes bounds how many times one object's copy may be
	// re-routed off freshly poisoned destination lines.
	maxCopyReroutes = 8
)

// anyTierFaulty reports whether any tier of the machine carries a fault
// model; cycles precompute it so fault-free runs pay one bool test per
// probe site and nothing else.
func anyTierFaulty(m *memsim.Machine) bool {
	for _, t := range m.Topology().Tiers() {
		if t.FaultEnabled() {
			return true
		}
	}
	return false
}

// retryRead is the blocking tail of a resilient read: the charged read of
// addr returned v but drew a transient media fault (gcWorker.loaded), so
// re-read with exponential backoff in virtual time until a read draws
// none. Bounded attempts; costs land in CollectionStats.Faults.
func (gw *gcWorker) retryRead(addr heap.Address, v uint64) uint64 {
	c, h, w := gw.c, gw.c.h, gw.w
	dev := h.DevOf(addr)
	backoff := faultBackoffBase
	for attempt := 0; ; attempt++ {
		c.stats.Faults.TransientFaults++
		if attempt >= maxFaultRetries {
			c.fail(fmt.Errorf("gc: transient-fault storm at %#x on %s: %d correctable faults in a row",
				addr, dev.Name(), attempt+1))
			return v
		}
		w.Advance(backoff)
		c.stats.Faults.BackoffTime += backoff
		backoff *= 2
		v = h.ReadWord(w, addr)
		c.stats.Faults.Retries++
		if !dev.TransientReadFault(addr) {
			return v
		}
	}
}

// destDevice picks the device for a fresh destination region of the given
// kind: the placement-policy device, unless its tier has tripped into
// degraded mode — then the first healthy device in placement-policy order
// takes over (graceful tier degradation). A nil return means "follow the
// policy" (also when every tier is degraded: a slow tier beats none).
func (c *cycle) destDevice(kind heap.RegionKind) *memsim.Device {
	if !c.faulty {
		return nil
	}
	want := c.h.OldDevice()
	if kind == heap.RegionSurvivor {
		want = c.h.SurvivorDevice()
	}
	if !want.Degraded() {
		return nil
	}
	for _, d := range c.h.PlacementDevices() {
		if d != want && !d.Degraded() {
			c.stats.Faults.TierFallbacks++
			return d
		}
	}
	return nil
}

// copyPoisoned probes the fresh copy's destination for a hard UE the copy
// itself may have worn into existence, leaving the line in gw.badLine.
func (gw *gcWorker) copyPoisoned() bool {
	if !gw.c.faulty {
		return false
	}
	dev := gw.c.h.DevOf(gw.phys)
	if !dev.FaultEnabled() {
		return false
	}
	line, bad := dev.PoisonedInRange(gw.phys, gw.size*heap.WordBytes)
	gw.badLine = line
	return bad
}

// reroute abandons a copy that landed on a poisoned line and claims a
// fresh destination for it (blocking: the claim may flush). The copy stays
// behind as a well-formed dead filler past which the bump pointer has
// already moved, and the bad line is recorded against its region (fencing
// it for retirement once its survivors are evacuated). CAS forwarding
// tolerates the re-route — nothing has been published yet. The abandoned
// copy must really be the dead filler it stays behind as: the copy
// replicated the source header verbatim, and a racing evacuator may have
// CAS-forwarded the source mid-copy, so without rewriting the header the
// stale copy could carry a forwarding mark into a region that outlives the
// collection (the winner's path scrubs its copy's mark only at the final
// destination).
func (gw *gcWorker) reroute() allocResult {
	c, h := gw.c, gw.c.h
	h.WriteFiller(gw.phys, gw.size)
	if h.NoteBadLine(gw.badLine) {
		c.stats.Faults.UEsDiscovered++
	}
	if gw.reroutes >= maxCopyReroutes {
		c.fail(fmt.Errorf("gc: copy of %#x re-routed %d times off poisoned lines: %w",
			gw.ref, gw.reroutes, ErrTierExhausted))
		return allocFailed
	}
	gw.reroutes++
	phys, final, res := gw.allocDst(gw.size, gw.promote, true)
	if res != allocOK {
		if c.err == nil {
			c.fail(fmt.Errorf("gc: no space to re-route copy of %#x: %w", gw.ref, ErrTierExhausted))
		}
		return allocFailed
	}
	gw.phys, gw.final = phys, final
	c.stats.Faults.RedirectedCopies++
	return allocOK
}

// mergeBadOld appends the bad-lined old regions not already among the
// mixed-collection candidates (BeginMixedCollection must not see a region
// twice).
func mergeBadOld(cands, bad []*heap.Region) []*heap.Region {
	if len(bad) == 0 {
		return cands
	}
	have := make(map[int]bool, len(cands))
	for _, r := range cands {
		have[r.Index] = true
	}
	for _, r := range bad {
		if !have[r.Index] {
			cands = append(cands, r)
		}
	}
	return cands
}

// noteNewUEs drains every faulty tier's freshly poisoned lines into the
// heap's per-region bad-line accounting, and folds live old regions that
// now carry bad lines into badOld so the caller can schedule their
// evacuation. Runs at collection end (uncharged bookkeeping).
func (b *base) noteNewUEs(s *CollectionStats) {
	for _, t := range b.h.Machine().Topology().Tiers() {
		for _, line := range t.DrainNewUEs() {
			if b.h.NoteBadLine(line) {
				s.Faults.UEsDiscovered++
			}
		}
	}
}
