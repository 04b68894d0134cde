package gc

import (
	"fmt"

	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

// The drain loop — the paper's four-step loop (Section 3.1): read a slot,
// copy its referent out of the collection set, install the forwarding
// pointer, update the slot — is written in step form (memsim.Worker.Steps).
// Each state below starts at a settled position, consumes the operation the
// previous state issued, runs the host code that follows it and issues the
// next operation. The machine's registers are fields of the recycled
// gcWorker, so while a worker is parked the running worker can advance it
// on its own stack, and a charged operation stops costing a coroutine
// switch. Every collection drives this one machine, from the owner's
// coroutine whenever the scheduler lets no peer do it (eager-yield, one
// thread, an armed crash plan).
//
// The sections that really block stay blocking code. The step leaves for
// them (returns false with a drainExit), the owner runs them on its own
// coroutine, sets the state to continue at and calls Steps again.
type drainState uint8

const (
	stNext      drainState = iota // take the next slot off the stack
	stSlot                        // gw.slot chosen: load it (step 1, random read)
	stSlotRead                    // slot loaded; a transient fault leaves for the retry
	stSlotHave                    // referent in gw.val: evacuate, note an old-to-old edge, or skip
	stProbe                       // header-map probe under way (Get before the mark, Put after the copy)
	stProbed                      // probe answered in gw.probe.result
	stMarkRead                    // mark word loaded; a transient fault leaves for the retry
	stMarkHave                    // mark in gw.val: forwarded already, else size the object up
	stAlloc                       // claim destination space
	stCopy                        // step 2: charge the copy's CPU cost, read the source
	stCopyRead                    // source read charged: write the destination
	stCopyWrote                   // destination written: move the data, start step 3
	stCAS                         // header CAS loop head (journal the mark first when persistent)
	stCASIssue                    // apply the CAS, charge its read
	stCASWon                      // swap succeeded: charge its write
	stCASLost                     // swap failed: a racing winner, or retry on the new mark
	stInstalled                   // forwarding settled, gw.winner holds it
	stPush                        // push the copy's next reference slot, prefetching its referent
	stPushed                      // prefetch charged: the push itself
	stEvacDone                    // gw.newAddr known: step 4 if the referent moved
	stSlotWrite                   // store the slot (random write)
	stSlotWrote                   // store charged: commit it, maintain remembered sets
	stSlotDone                    // slot finished: async-flush bookkeeping
)

// drainExit says why the step machine handed control back to its owner.
type drainExit uint8

const (
	exitDone       drainExit = iota // the collection failed: stop draining
	exitSteal                       // stack empty: trySteal (SpinWait) for work or termination
	exitWaitValue                   // header-map entry in flight: spin until it publishes
	exitFlush                       // a cache region went quiescent: write it back (AsyncFlush)
	exitAlloc                       // destination full and retiring it may flush (AsyncFlush)
	exitJournal                     // journal gw.jAddr's old value before mutating it
	exitFaultRetry                  // transient read fault: back off and re-read
	exitReroute                     // the copy landed on a poisoned line: abandon it, re-route
	numDrainExits
)

func (gw *gcWorker) leave(e drainExit) bool {
	gw.exit = e
	return false
}

// drainLoop processes the work stack, stealing when empty, until global
// termination: run the step machine, and whenever it leaves run the
// blocking section it left for.
func (gw *gcWorker) drainLoop() {
	c, w := gw.c, gw.w
	gw.st = stNext
	for {
		w.Steps(gw.stepFn)
		c.exits[gw.exit]++
		switch gw.exit {
		case exitDone:
			return
		case exitSteal:
			slot, ok := gw.trySteal()
			if !ok {
				return
			}
			gw.slot, gw.st = slot, stSlot
		case exitWaitValue:
			gw.probe.result = c.hm.spinValue(w, gw.probe.idx)
		case exitFlush:
			c.flush(w, gw.flushDest, true)
		case exitAlloc:
			gw.afterAlloc(gw.allocCopy(true))
		case exitJournal:
			if err := c.pl.append(w, gw.jAddr, gw.jOld); err != nil {
				c.fail(err)
				if gw.st == stCASIssue {
					// The copy stands as if installed; the failed collection
					// ends at the next slot.
					gw.winner, gw.st = gw.final, stInstalled
				} else {
					gw.st = stSlotDone
				}
			}
		case exitFaultRetry:
			gw.val = gw.retryRead(gw.retryAddr, gw.val)
		case exitReroute:
			gw.afterAlloc(gw.reroute())
		}
	}
}

// step is the drain machine (see drainState). w is gw.w; the caller may be
// any coroutine of the phase.
func (gw *gcWorker) step(w *memsim.Worker) bool {
	c, h := gw.c, gw.c.h
	for {
		switch gw.st {
		case stNext:
			if c.err != nil {
				return gw.leave(exitDone)
			}
			slot, ok := gw.stack.take(c.opt.BFS)
			if !ok {
				return gw.leave(exitSteal)
			}
			gw.slot = slot
			fallthrough
		case stSlot:
			h.IssueReadWord(w, gw.slot)
			gw.st = stSlotRead
			return true

		case stSlotRead:
			gw.st = stSlotHave
			if gw.loaded(gw.slot) {
				return gw.leave(exitFaultRetry)
			}
		case stSlotHave:
			ref := gw.val
			gw.ref, gw.st = ref, stSlotDone
			if ref == 0 {
				continue
			}
			if h.InCSetAt(ref) {
				// Forwarding lookup: DRAM header map first (if enabled),
				// then the NVM header.
				if c.hm != nil {
					gw.probe.start(c.hm, ref, 0, false)
					gw.st = stProbe
					continue
				}
				return gw.issueMarkRead(w)
			}
			if h.KindAt(ref) == heap.RegionOld {
				r := h.RegionOf(ref)
				// Non-moving old target: if this slot's final home is a
				// *different* old region (a freshly promoted copy), record
				// the old-to-old edge so future mixed collections can
				// evacuate the target's region.
				finalSlot := c.finalAddrOf(gw.slot)
				if fr := h.RegionOf(finalSlot); fr != nil && fr.Kind == heap.RegionOld && fr != r {
					r.RemSet.Add(finalSlot)
				}
			}

		case stProbe:
			if gw.probe.step(w) {
				return true
			}
			gw.st = stProbed
			if gw.probe.waiting {
				return gw.leave(exitWaitValue)
			}
		case stProbed:
			v := gw.probe.result
			switch {
			case !gw.probe.put && v != 0:
				c.stats.HeaderMapHits++
				gw.newAddr, gw.st = v, stEvacDone
			case !gw.probe.put:
				return gw.issueMarkRead(w)
			case v != 0:
				if v == gw.final {
					c.stats.HeaderMapInstalls++
				}
				gw.winner, gw.st = v, stInstalled
			default:
				// Map full for this key: install in the NVM header instead.
				c.stats.HeaderMapFallbacks++
				gw.st = stCAS
			}

		case stMarkRead:
			gw.st = stMarkHave
			if gw.loaded(heap.MarkAddr(gw.ref)) {
				return gw.leave(exitFaultRetry)
			}
		case stMarkHave:
			mark := gw.val
			if heap.IsForwarded(mark) {
				gw.newAddr, gw.st = heap.ForwardingAddr(mark), stEvacDone
				continue
			}
			// The info word shares the header cache line with the mark word.
			info := h.Peek(heap.InfoAddr(gw.ref))
			k := h.Klasses.ByID(heap.InfoKlassID(info))
			size := heap.InfoSize(info)
			if k == nil || size < heap.HeaderWords {
				c.fail(fmt.Errorf("gc: malformed object at %#x (info %#x)", gw.ref, info))
				gw.newAddr, gw.st = gw.ref, stEvacDone
				continue
			}
			gw.mark, gw.k, gw.size = mark, k, size
			gw.age = heap.MarkAge(mark)
			// Mixed and full GCs compact old objects into fresh old regions;
			// they never return to the young generation.
			gw.promote = gw.age+1 >= promoteAge || h.KindAt(gw.ref) == heap.RegionOld
			gw.reroutes = 0
			gw.st = stAlloc
		case stAlloc:
			res := gw.allocCopy(false)
			if res == allocWouldBlock {
				return gw.leave(exitAlloc)
			}
			gw.afterAlloc(res)

		case stCopy:
			// Sequential read + sequential write, plus the CPU cost of size
			// checks, klass decoding, barrier bookkeeping and
			// allocation-cursor updates.
			w.Advance(110 + gw.size/8)
			h.IssueCopyRead(w, gw.phys, gw.ref, gw.size)
			gw.st = stCopyRead
			return true
		case stCopyRead:
			h.IssueCopyWrite(w, gw.phys, gw.size)
			gw.st = stCopyWrote
			return true
		case stCopyWrote:
			h.CommitCopy(gw.phys, gw.ref, gw.size)
			if gw.copyPoisoned() {
				return gw.leave(exitReroute)
			}
			newAge := gw.age + 1
			if gw.promote {
				newAge = 0
			}
			h.Poke(heap.MarkAddr(gw.phys), heap.MarkWithAge(newAge))
			// Step 3: record old->final, preferring the DRAM header map and
			// falling back to a CAS on the NVM object header.
			gw.st = stCAS
			if c.hm != nil {
				gw.probe.start(c.hm, gw.ref, gw.final, true)
				gw.st = stProbe
			}

		case stCAS:
			gw.st = stCASIssue
			if c.pl != nil {
				// Journal the pre-forwarding mark before publishing the
				// forwarding pointer into the NVM header, so recovery can
				// restore the from-space object's header exactly. (With the
				// header map, forwarding state is volatile DRAM and needs no
				// journaling — only this fallback path touches NVM.)
				gw.jAddr, gw.jOld = heap.MarkAddr(gw.ref), gw.mark
				return gw.leave(exitJournal)
			}
		case stCASIssue:
			cur, ok := h.IssueCAS(w, heap.MarkAddr(gw.ref), gw.mark, heap.ForwardedMark(gw.final))
			gw.val, gw.st = cur, stCASLost
			if ok {
				gw.st = stCASWon
			}
			return true
		case stCASWon:
			h.IssueCASStore(w, heap.MarkAddr(gw.ref))
			gw.winner, gw.st = gw.final, stInstalled
			return true
		case stCASLost:
			if cur := gw.val; heap.IsForwarded(cur) {
				gw.winner, gw.st = heap.ForwardingAddr(cur), stInstalled
			} else {
				gw.mark, gw.st = cur, stCAS
			}

		case stInstalled:
			if gw.winner != gw.final {
				gw.retractCopy(gw.phys, gw.size)
				c.stats.WastedCopies++
				gw.newAddr, gw.st = gw.winner, stEvacDone
				continue
			}
			bytes := gw.size * heap.WordBytes
			c.stats.ObjectsCopied++
			c.stats.BytesCopied += bytes
			if gw.promote {
				c.stats.ObjectsPromoted++
				c.stats.BytesPromoted += bytes
			}
			if d := c.destOf(gw.phys); d == nil && c.opt.WriteCache {
				c.stats.CacheFallbackBytes += bytes
			}
			gw.nextRef, gw.pushed, gw.st = 0, 0, stPush
		case stPush:
			off, ok := gw.refOffset()
			if !ok {
				if gw.pushed > 0 {
					// The pending counter feeds every worker's flush trigger.
					if d := c.destOf(gw.phys); d != nil {
						d.pending += gw.pushed
					}
				}
				gw.newAddr, gw.st = gw.final, stEvacDone
				continue
			}
			gw.pushSlot, gw.st = heap.SlotAddr(gw.phys, off), stPushed
			if c.pushPrefetch {
				// Peek reads this worker's own fresh copy: private until the
				// forwarding pointer published it, and immutable afterwards.
				if val := h.Peek(gw.pushSlot); val != 0 && h.InCSetAt(val) {
					if c.hm != nil {
						// With the header map enabled, the forwarding lookup
						// reads the DRAM map, not the NVM header — the paper
						// extends the prefetching instructions accordingly
						// (Section 4.3).
						c.hm.IssuePrefetchFor(w, val)
					} else {
						w.IssuePrefetch(h.DevOf(val), heap.MarkAddr(val), memsim.LineSize, false)
					}
					return true
				}
			}
		case stPushed:
			gw.stack.push(gw.pushSlot)
			w.Advance(4)
			gw.pushed++
			gw.st = stPush

		case stEvacDone:
			gw.st = stSlotDone
			if c.err != nil || gw.newAddr == gw.ref {
				continue
			}
			// Step 4. Under a persistence mode, slots that survive a crash
			// logically — root slots (region nil) and slots in regions that
			// pre-date this collection — are journaled with their old value
			// before the write; slots inside regions claimed by this GC are
			// not (recovery discards those regions wholesale).
			gw.st = stSlotWrite
			if c.pl != nil {
				if r := h.RegionOf(gw.slot); r == nil || !r.ClaimedInGC {
					gw.jAddr, gw.jOld = gw.slot, gw.ref
					return gw.leave(exitJournal)
				}
			}
		case stSlotWrite:
			h.IssueWriteWord(w, gw.slot)
			gw.st = stSlotWrote
			return true
		case stSlotWrote:
			h.CommitWord(gw.slot, gw.newAddr)
			gw.remember(w)
			gw.st = stSlotDone

		case stSlotDone:
			c.stats.SlotsProcessed++
			gw.st = stNext
			// Async-flush tracking: this slot no longer blocks its region.
			if d := c.destOf(gw.slot); d != nil {
				d.pending--
				if c.asyncFlushDue(d) {
					gw.flushDest = d
					return gw.leave(exitFlush)
				}
			}
		}
	}
}

func (gw *gcWorker) issueMarkRead(w *memsim.Worker) bool {
	gw.c.h.IssueReadWord(w, heap.MarkAddr(gw.ref))
	gw.st = stMarkRead
	return true
}

// loaded consumes a charged load of addr into gw.val and reports whether
// the read drew a transient media fault, which the owner retries with
// backoff (retryRead). With no fault model installed it is a Peek.
func (gw *gcWorker) loaded(addr heap.Address) bool {
	c, h := gw.c, gw.c.h
	gw.val = h.Peek(addr)
	if !c.faulty {
		return false
	}
	if dev := h.DevOf(addr); !dev.FaultEnabled() || !dev.TransientReadFault(addr) {
		return false
	}
	gw.retryAddr = addr
	return true
}

// allocCopy claims destination space for the object being evacuated.
func (gw *gcWorker) allocCopy(block bool) allocResult {
	phys, final, res := gw.allocDst(gw.size, gw.promote, block)
	if res == allocOK {
		gw.phys, gw.final = phys, final
	}
	return res
}

// afterAlloc continues after a settled destination claim: on to the copy,
// or past the whole evacuation when the collection has failed.
func (gw *gcWorker) afterAlloc(res allocResult) {
	if res == allocOK {
		gw.st = stCopy
	} else {
		gw.newAddr, gw.st = gw.ref, stEvacDone
	}
}

// refOffset iterates the reference-slot offsets of the object being
// pushed (gw.k, gw.size), advancing gw.nextRef.
func (gw *gcWorker) refOffset() (int64, bool) {
	k, i := gw.k, gw.nextRef
	gw.nextRef++
	if k.Array {
		off := heap.HeaderWords + i
		return off, k.ElemRef && off < gw.size
	}
	if i >= int64(len(k.RefOffsets)) {
		return 0, false
	}
	return int64(k.RefOffsets[i]), true
}

// remember maintains remembered sets for the slot just updated: an
// old-space slot now pointing at a survivor region must be visible to the
// next young collection.
func (gw *gcWorker) remember(w *memsim.Worker) {
	c, h := gw.c, gw.c.h
	finalSlot := c.finalAddrOf(gw.slot)
	fr := h.RegionOf(finalSlot)
	// Root slots (aux space, fr nil) are always rescanned. Only old-space
	// slots need remembering; survivor regions are rescanned wholesale as
	// part of the next collection set. Edges into survivor regions feed the
	// next young GC; edges into other old regions feed future mixed GCs.
	if fr == nil || fr.Kind != heap.RegionOld {
		return
	}
	nr := h.RegionOf(gw.newAddr)
	if nr != nil && nr != fr && !nr.InCSet &&
		(nr.Kind == heap.RegionSurvivor || nr.Kind == heap.RegionOld) {
		nr.RemSet.Add(finalSlot)
		w.Advance(15)
	}
}
