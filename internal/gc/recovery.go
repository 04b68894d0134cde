package gc

import (
	"errors"
	"fmt"

	"nvmgc/internal/check"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

// RecoveryOutcome classifies what the post-crash recovery pass did.
type RecoveryOutcome uint8

const (
	// RecoveryClean: the crash did not interrupt a collection; the NVM
	// image was already consistent and only volatile structures
	// (remembered sets, header map) were rebuilt.
	RecoveryClean RecoveryOutcome = iota
	// RecoveryRolledBack: a collection was interrupted mid-flight. The
	// journal was undone, half-evacuated regions were discarded, and the
	// heap was restored to its pre-GC state from the surviving from-space
	// copies.
	RecoveryRolledBack
	// RecoveryRolledForward: the crash struck after the collection had
	// committed its journal (everything it wrote was already durable) but
	// before bookkeeping finished; recovery completed the collection.
	RecoveryRolledForward
	// RecoveryUnrecoverable: the image could not be restored to a
	// consistent heap (expected for PersistNone, which runs without
	// persist barriers).
	RecoveryUnrecoverable
)

// String returns the outcome name.
func (o RecoveryOutcome) String() string {
	switch o {
	case RecoveryClean:
		return "clean"
	case RecoveryRolledBack:
		return "rolled-back"
	case RecoveryRolledForward:
		return "rolled-forward"
	case RecoveryUnrecoverable:
		return "unrecoverable"
	default:
		return fmt.Sprintf("RecoveryOutcome(%d)", uint8(o))
	}
}

// RecoveryReport summarizes one recovery pass.
type RecoveryReport struct {
	Outcome RecoveryOutcome
	Scan    heap.PostCrashScan // classification of the raw post-crash image

	JournalActive bool // the journal header recorded an open collection
	EntriesUndone int  // journal undo records applied
	ForwardsSwept int  // residual NVM forwarding headers reverted (salvage)
	SlotsRemapped int  // slots redirected back to from-space originals (salvage)
	Detail        string
}

// CrashRun is the verdict of one crash-restart cycle (CollectThroughCrash).
type CrashRun struct {
	Crashed  bool           // the plan fired before the collection finished
	Recovery RecoveryReport // the recovery pass's report; zero when !Crashed
	// Err is nil only when the heap holds the pre-GC live graph again: it
	// carries a failed recovery pass or the first object that differs.
	Err error
}

// CollectThroughCrash is the one crash-restart path. It arms plan on the
// heap's machine and runs one young collection. If the plan fired, it
// materializes the post-crash image and runs recoverHeap, as a restarted
// runtime would. Either way it then proves the heap against pre
// (check.VerifyRecovered), so a collection the plan never interrupted is
// checked as strictly as a recovered one. Whether a failed verdict is a
// bug is the caller's policy: it is one under persist barriers, the
// expected result for PersistNone. The returned error is reserved for
// failures other than the crash: a collection that fails on its own (a
// bad thread count, a full journal) or an image that cannot materialize.
func (b *base) CollectThroughCrash(threads int, plan memsim.FaultPlan, pre *check.Snapshot) (CrashRun, error) {
	m := b.h.Machine()
	m.InjectFault(plan)
	var run CrashRun
	if _, err := b.Collect(threads); errors.Is(err, ErrCrashed) {
		run.Crashed = true
		if _, err := m.MaterializeCrash(); err != nil {
			return run, err
		}
		run.Recovery, run.Err = b.recoverHeap()
	} else if err != nil {
		return run, err
	}
	if run.Err == nil {
		run.Err = check.VerifyRecovered(b.h, pre)
	}
	return run, nil
}

// recoverHeap runs the collector's post-crash recovery pass, after
// memsim.Machine.MaterializeCrash has produced the post-crash NVM image
// (Collect having returned ErrCrashed). Only CollectThroughCrash calls it,
// so every recovery is followed by the graph proof.
//
// The pass mirrors what a restarted runtime would do from the durable
// image alone:
//
//  1. classify every region (heap.ScanPostCrash),
//  2. if no collection was open, rebuild volatile structures and return;
//  3. if the journal had committed, roll the finished collection forward;
//  4. otherwise undo the journal (restoring root slots, old-space slots,
//     and from-space headers to their pre-GC values), sweep any residual
//     forwarding state (only possible without a journal, i.e.
//     PersistNone), discard the regions the interrupted GC had claimed,
//     and rebuild remembered sets and the header map.
//
// Recovery charges no virtual time. It returns an error — with outcome
// RecoveryUnrecoverable — when the restored heap fails its structural
// invariants; CollectThroughCrash then proves full graph isomorphism
// via check.VerifyRecovered against a pre-GC snapshot.
func (b *base) recoverHeap() (RecoveryReport, error) {
	h := b.h
	rep := RecoveryReport{Scan: h.ScanPostCrash()}

	finishVolatile := func() {
		if b.hm != nil {
			b.hm.Reset()
		}
		h.RebuildRemSets()
	}

	if !h.InGC() {
		rep.Outcome = RecoveryClean
		finishVolatile()
		if err := h.CheckInvariants(); err != nil {
			rep.Outcome = RecoveryUnrecoverable
			rep.Detail = err.Error()
			return rep, fmt.Errorf("gc: recovery (clean image): %w", err)
		}
		return rep, nil
	}

	epoch, active, entries := readJournal(h)
	rep.JournalActive = active

	// An idle journal header is ambiguous: either this collection's commit
	// persisted (header epoch is the collection's own), or the crash struck
	// inside the checkpoint window before begin's header line ever became
	// durable (header still carries the previous epoch, and — since every
	// journaled mutation is ordered after that header persist — nothing the
	// collection wrote reached the media). Only the first case may roll
	// forward; the second falls through to the rollback path below, which
	// undoes an empty journal and restores the volatile bookkeeping.
	if b.pl != nil && !active && epoch == b.pl.epoch {
		// The journal committed: every line the collection wrote was
		// already durable when the crash struck, so the collection is
		// complete — finish its bookkeeping instead of undoing it.
		rep.Outcome = RecoveryRolledForward
		b.pl.epoch = epoch
		b.pl.active = false
		h.FinishCollection(h.CrashedCSet())
		h.ScrubRemSets()
		finishVolatile()
		if err := h.CheckInvariants(); err != nil {
			rep.Outcome = RecoveryUnrecoverable
			rep.Detail = err.Error()
			return rep, fmt.Errorf("gc: recovery (roll-forward): %w", err)
		}
		return rep, nil
	}

	// Undo the journal in reverse append order: each record restores one
	// word (a root slot, an old-space reference slot, or a from-space mark
	// word) to its pre-mutation value. Records whose covering mutation
	// never executed are harmless no-ops by construction: the entry was
	// persisted before the mutation was allowed to run.
	for i := len(entries) - 1; i >= 0; i-- {
		h.Poke(entries[i].slot, entries[i].old)
	}
	rep.EntriesUndone = len(entries)
	if b.pl != nil {
		b.pl.epoch = epoch
		b.pl.active = false
	}

	// Salvage sweep: any forwarding pointer still in an NVM header was not
	// journaled (PersistNone) or outlived a lost journal. Revert the marks
	// and remember new->old so persisted slot updates can be remapped to
	// the surviving from-space originals. Ages are lost on this path; the
	// graph signature deliberately ignores them.
	newToOld := make(map[heap.Address]heap.Address)
	for _, r := range h.CrashedCSet() {
		// A corrupt tail stops the sweep; the invariant check reports it.
		_ = h.WalkRegion(r, func(obj heap.Address, _ *heap.Klass, _ int64) error {
			if mark := h.Peek(heap.MarkAddr(obj)); heap.IsForwarded(mark) {
				newToOld[heap.ForwardingAddr(mark)] = obj
				h.Poke(heap.MarkAddr(obj), heap.MarkWithAge(0))
				rep.ForwardsSwept++
			}
			return nil
		})
	}
	if len(newToOld) > 0 {
		rep.SlotsRemapped = remapSalvagedSlots(h, newToOld)
	}

	// Discard the interrupted collection's half-filled regions and restore
	// the generation lists; then rebuild what lived in DRAM.
	h.RollbackCollection()
	finishVolatile()

	rep.Outcome = RecoveryRolledBack
	if err := h.CheckInvariants(); err != nil {
		rep.Outcome = RecoveryUnrecoverable
		rep.Detail = err.Error()
		return rep, fmt.Errorf("gc: recovery (rollback): %w", err)
	}
	return rep, nil
}

// remapSalvagedSlots rewrites every root slot and every reference slot in
// surviving regions whose value points at a discarded to-space copy back
// to the from-space original. Best-effort: it exists for configurations
// without a journal, where full recovery is not guaranteed.
func remapSalvagedSlots(h *heap.Heap, newToOld map[heap.Address]heap.Address) int {
	n := 0
	h.Roots.ForEach(func(slot heap.Address) {
		if old, ok := newToOld[h.Peek(slot)]; ok {
			h.Poke(slot, old)
			n++
		}
	})
	for _, r := range h.Regions() {
		if r.Kind == heap.RegionFree || r.ClaimedInGC || r.CachePool {
			continue
		}
		// A corrupt tail stops the remap; the invariant check reports it.
		_ = h.WalkRegion(r, func(obj heap.Address, k *heap.Klass, size int64) error {
			for slot := range k.RefSlots(obj, size) {
				if old, ok := newToOld[h.Peek(slot)]; ok {
					h.Poke(slot, old)
					n++
				}
			}
			return nil
		})
	}
	return n
}
