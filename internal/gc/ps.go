package gc

import "nvmgc/internal/heap"

// Parallel-Scavenge allocation policy: small survivors are copied into
// thread-local allocation buffers (LABs) carved from shared destination
// regions; objects of at least directWords bypass LABs and are copied
// into a shared uncached region. Only LAB-backed regions are contiguous
// streams, so only they are fronted by DRAM cache regions — the paper's
// reason the write cache absorbs fewer NVM writes under PS.

func genIndex(promote bool) int {
	if promote {
		return 1
	}
	return 0
}

func genKind(promote bool) heap.RegionKind {
	if promote {
		return heap.RegionOld
	}
	return heap.RegionSurvivor
}

func (gw *gcWorker) allocDstPS(size int64, promote, block bool) (phys, final heap.Address, res allocResult) {
	c := gw.c
	gi := genIndex(promote)

	if size >= c.directWords {
		// The direct region is a bump allocator shared by every worker. It
		// is never cached, so retiring it never flushes.
		for c.err == nil {
			d := c.sharedDirect[gi]
			if d != nil {
				if p, f, ok := d.alloc(size); ok {
					return p, f, allocOK
				}
				c.retireDest(gw.w, d)
				c.sharedDirect[gi] = nil
			}
			nd, ok := c.newDest(gw.w, genKind(promote), false)
			if !ok {
				return 0, 0, allocFailed
			}
			c.sharedDirect[gi] = nd
		}
		return 0, 0, allocFailed
	}

	lab := &gw.labs[gi]
	if lab.d == nil || lab.remaining() < size {
		// Releasing the LAB and retiring its region can both flush.
		if !block && c.opt.AsyncFlush {
			return 0, 0, allocWouldBlock
		}
		if !gw.refillLAB(lab, promote) {
			return 0, 0, allocFailed
		}
	}
	p, f := lab.phys, lab.final
	lab.phys += heap.Address(size * heap.WordBytes)
	lab.final += heap.Address(size * heap.WordBytes)
	return p, f, allocOK
}

// refillLAB releases the current LAB (plugging its tail with a filler
// object) and carves a fresh one from the shared cached region.
func (gw *gcWorker) refillLAB(lab *labState, promote bool) bool {
	c := gw.c
	gi := genIndex(promote)
	gw.releaseLAB(lab)
	for c.err == nil {
		d := c.sharedLAB[gi]
		if d != nil {
			if p, f, ok := d.alloc(c.labWords); ok {
				lab.d = d
				d.labHolds++
				lab.phys = p
				lab.final = f
				lab.physEnd = p + heap.Address(c.labWords*heap.WordBytes)
				gw.w.Advance(60) // LAB carve bookkeeping
				return true
			}
			c.retireDest(gw.w, d)
			c.sharedLAB[gi] = nil
		}
		nd, ok := c.newDest(gw.w, genKind(promote), true)
		if !ok {
			return false
		}
		c.sharedLAB[gi] = nd
	}
	return false
}

// releaseLAB returns a LAB to its region, formatting any unused tail as a
// filler object so the region still parses into contiguous objects, and
// re-checks the region for asynchronous flushing.
func (gw *gcWorker) releaseLAB(lab *labState) {
	if lab.d == nil {
		return
	}
	if rem := lab.remaining(); rem >= heap.HeaderWords {
		gw.c.h.WriteFiller(lab.phys, rem)
		gw.w.Advance(10)
	}
	lab.d.labHolds--
	gw.c.maybeAsyncFlush(gw.w, lab.d)
	lab.d = nil
	lab.phys, lab.final, lab.physEnd = 0, 0, 0
}
