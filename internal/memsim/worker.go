package memsim

// Worker is one simulated hardware thread inside a phase. All memory
// operations advance the worker's virtual clock; under a parallel phase
// each device-visible operation is a potential yield point, but the worker
// only switches away once its key passes the root of the key tree (the
// next-earliest runnable worker) — until then its operations are provably
// the globally earliest, so device queueing stays processed in global time
// order without a coroutine switch.
type Worker struct {
	id    int
	now   Time
	m     *Machine
	sched *scheduler

	// The worker's coroutine (see Machine.Run): the dispatcher calls resume
	// to run the body until it parks or returns and stop to unwind it early;
	// the body calls park to switch back to the dispatcher. All nil in a
	// single-worker phase, which runs on the caller's stack.
	resume func() (struct{}, bool)
	park   func(struct{}) bool
	stop   func()

	// finished marks the body as returned (read by the watchdog).
	finished bool

	// Watchdog bookkeeping: the last device-visible operation and the
	// current consecutive-Spin streak. Every real operation resets the
	// streak; only an unbroken streak across *all* unfinished workers
	// indicates a deadlock (see watchdog.go).
	lastOp     string
	lastDev    *Device
	lastAddr   uint64
	spinStreak int64
	spinSince  Time

	// flushDone is the completion time of the latest CLWB writeback this
	// worker issued; PersistFence cannot retire before it.
	flushDone Time

	// spinCond/spinQuantum are set while the worker is inside SpinWait:
	// they let the scheduler advance this worker's clock through further
	// spin iterations in place — evaluating the loop condition on its
	// behalf — instead of resuming it for every quantum (see SpinWait).
	spinCond    func() bool
	spinQuantum Time

	// op is the pending charged operation this worker is about to account
	// for (set by an Issue* call, cleared by execOp). While the worker is parked at a
	// yield with op pending, the running worker may execute the accounting
	// on its behalf at exactly this worker's position in global time order
	// (see yield), which skips the switch entirely whenever the operation's
	// cost moves this worker past the runner.
	op opDesc

	// step is set while the worker's body is inside Steps. While the worker
	// is parked with no op pending, the running worker may call it on this
	// worker's behalf — the parked worker's host code runs on the runner's
	// stack, at exactly this worker's position in global order (see yield).
	step func(*Worker) bool

	// pipe is set while a single-worker phase is charged on the accountant
	// goroutine (see pipeline): Exec hands operations to it, Advance banks
	// time for the next one, and every read of the clock drains it first.
	pipe *pipeline
}

// opKind classifies a pending charged operation (see Worker.op).
type opKind uint8

const (
	opNone     opKind = iota
	opWord            // single-line random access (ReadWord/WriteWord)
	opRange           // multi-line range access (Read/Write)
	opNT              // non-temporal streaming store (WriteNT)
	opPrefetch        // software prefetch (Prefetch)
	opCLWB            // cache-line write-back (CLWB)
)

// opDesc captures everything execOp needs to run a charged operation's
// accounting: the LLC/device state transitions and the worker-clock
// advance. Crucially the accounting is a pure function of shared simulator
// state (LLC, devices, persistence domain) and these parameters — the ops
// return no value, and the only worker-local state they touch (the clock,
// and flushDone for CLWB) belongs to the op's owner, who reads it again
// only after resuming at its own position in global order. That is what
// makes peer-executed accounting safe.
type opDesc struct {
	kind  opKind
	write bool
	seq   bool
	dev   *Device
	addr  uint64
	n     int64
}

// issue publishes the worker's pending operation field by field. A struct
// literal is built on the stack with one store per field and then copied
// with 16-byte moves, each loading across several of those fresh stores:
// store-to-load forwarding fails and the copy stalls.
func (w *Worker) issue(kind opKind, write, seq bool, dev *Device, addr uint64, n int64) {
	op := &w.op
	op.kind, op.write, op.seq, op.dev, op.addr, op.n = kind, write, seq, dev, addr, n
}

// noteOp records a real (non-spin) operation for watchdog dumps and ends
// any spin streak. It also fires the armed time-based fault trigger: a
// crash at virtual time T strikes at the first operation starting at or
// after T, which is deterministic because operations are globally ordered
// by issue time.
func (w *Worker) noteOp(op string, dev *Device, addr uint64) {
	w.lastOp, w.lastDev, w.lastAddr = op, dev, addr
	w.spinStreak = 0
	w.checkFault()
}

// checkFault unwinds the worker if the machine is halted (a fault already
// fired, or the watchdog tripped) and fires a pending time trigger.
func (w *Worker) checkFault() {
	m := w.m
	if m.halted {
		panic(crashSignal{})
	}
	if m.faultTime > 0 && w.now >= m.faultTime {
		m.triggerCrash(w.now)
		panic(crashSignal{})
	}
}

// MaxWorkers bounds the workers of one parallel phase so the scheduling
// key can pack (now, id) into a single integer. Front ends reject larger
// thread counts up front; Run panics on them.
const MaxWorkers = 256

// qkey packs the worker's scheduling key — virtual time, ties broken by
// worker id — into one integer, so the earlier of two workers is an integer
// min and the key alone names its worker. Worker ids fit 8 bits
// (MaxWorkers) and virtual clocks stay below 2^55 ns (≈417 virtual days;
// endPhase enforces maxTime), so the packing never overflows and orders
// exactly like the (now, id) pair.
func (w *Worker) qkey() Time { return w.now<<8 | Time(w.id) }

// ID returns the worker's index within its phase.
func (w *Worker) ID() int { return w.id }

// Now returns the worker's virtual clock.
func (w *Worker) Now() Time {
	if w.pipe != nil {
		w.pipe.drain()
	}
	return w.now
}

// Machine returns the machine the worker runs on.
func (w *Worker) Machine() *Machine { return w.m }

// run is the body of the worker's coroutine: execute the phase body and
// name the next runnable worker (if any) as successor; the coroutine then
// returns to the dispatcher for good.
func (w *Worker) run(park func(struct{}) bool) {
	w.park = park
	w.sched.cur = w
	runBody(w, w.sched.body)
	w.finished = true
	w.sched.next = w.sched.takeTop()
}

// switchTo parks the worker's coroutine and has the dispatcher resume
// next. It returns when the dispatcher resumes this worker again. A false
// park means the dispatcher is stopping the phase instead (another
// worker's body panicked): unwind the body like a halt does.
func (w *Worker) switchTo(next *Worker) {
	s := w.sched
	s.next = next
	w.m.switches++
	if !w.park(struct{}{}) {
		panic(crashSignal{})
	}
	s.cur = w
}

// peerMayAct is the one guard on everything the running worker does for a
// parked peer o in yield's loop: execute o's pending accounting, advance
// its SpinWait in place, or (host true) run a step of its body.
//
// None of it happens under eager-yield (the reference schedule) or while
// the machine is halted (o must unwind on its own coroutine). An armed
// FaultPlan splits the cases. Accounting and spin advancement raise
// nothing themselves, so they are only time-gated: once o's clock reaches
// the armed crash time, o is resumed to fire the trigger from its own
// checkFault. A step is o's host code: its Issue* calls run checkFault and
// its stores run the persistence domain's Nth-store trigger, and either
// would raise the crash unwind on the runner's stack — ending the wrong
// worker's body and leaving o parked mid-step. Which store is the Nth
// cannot be known before the step runs, so any armed plan, time or
// store-count, forbids peer-run steps outright; the owner then drives
// every step from its own coroutine, which is the reference behavior.
func (m *Machine) peerMayAct(o *Worker, host bool) bool {
	if m.eagerYield || m.halted {
		return false
	}
	if host {
		return m.fault == nil
	}
	return !(m.faultTime > 0 && o.now >= m.faultTime)
}

// yield is the interleaving point of every charged operation and spin: keep
// the CPU while still the globally earliest worker (see Worker), otherwise
// act for, or switch to, the worker at the root of the key tree.
func (w *Worker) yield() {
	s := w.sched
	if s == nil {
		return
	}
	m := w.m
	wkey := w.qkey()
	for {
		top := s.tree[1]
		if wkey < top {
			// Still the earliest, or nobody else is runnable (top is noKey).
			return
		}
		// A parked worker's own leaf keeps the root at or below its key, so a
		// blocking op inside a peer-run step lands here, not in a wrong park.
		if s.cur != w {
			panic("memsim: blocking operation inside a step run by a peer (a step must only Issue)")
		}
		// The earliest worker is parked. Whatever it would do next that
		// needs no stack of its own is done here, on its behalf, at exactly
		// its position (now, id) in global order — so results are
		// bit-identical to resuming it — and the loop looks again: if that
		// moved it past us it never needed the CPU at all.
		next := &s.all[top&0xff]
		acted := false
		switch {
		case next.spinCond != nil:
			// Inside SpinWait: evaluate its condition and spin it in place.
			acted = m.peerMayAct(next, false) && next.advanceSpin()
		case next.op.kind != opNone:
			// Parked with an operation issued: its accounting is confined to
			// shared simulator state plus the owner's clock (see opDesc).
			if acted = m.peerMayAct(next, false); acted {
				next.execOp()
			}
		case next.step != nil && m.peerMayAct(next, true):
			// Parked at a settled position inside Steps: run its host code up
			// to the next operation it issues. A false step needs its own
			// coroutine; clearing the field tells the owner so when it wakes.
			// An operation issued with no Advance before it leaves the key
			// where it was, so the worker is still the top and the next pass
			// would come straight back to account for it: do that now.
			if acted = next.step(next); !acted {
				next.step = nil
			} else if next.op.kind != opNone && next.qkey() == top && m.peerMayAct(next, false) {
				next.execOp()
			}
		}
		if !acted {
			break
		}
		// Replay the tree only if the key moved; unmoved, next is still the
		// top and the tree already says so.
		if key := next.qkey(); key != top {
			s.tree.set(next.id, key)
		}
	}
	// A real switch is due: the earliest worker needs its coroutine to make
	// progress, must observe a halt/fault, or its awaited condition now
	// holds. It leaves the tree and this worker enters it: two replays.
	next := s.takeTop()
	s.tree.set(w.id, wkey)
	w.switchTo(next)
}

// Exec is the second half of every charged operation: yield at the issued
// operation's interleaving point, run the accounting — unless a peer
// already executed it on this worker's behalf while it was parked — and
// yield once more at the settled clock. The second yield pins the host
// code that follows the operation to the position (settled time, id) in
// global order: a delegated owner resumes exactly when its settled key
// reaches the root of the key tree, so the settle-yield makes the
// self-executed and eager paths observe the identical position. Without
// it, which worker's host code runs first at a virtual-time tie would
// depend on who happened to hold the CPU — and host code mutates shared
// collector state (region claims, forwarding installs) whose order must
// not depend on the scheduling mode. With nothing issued Exec does nothing;
// in a pipelined single-worker phase it only queues the operation.
func (w *Worker) Exec() {
	if w.op.kind == opNone {
		return
	}
	if w.pipe != nil {
		w.pipe.issue(w)
		return
	}
	w.yield()
	if w.op.kind != opNone {
		w.execOp()
		w.yield()
	}
}

// Steps runs a stretch of the worker's body written in step form. Each
// call of step runs the body's host code from the worker's settled
// position up to its next charged operation, issues it (an Issue* call,
// never a blocking operation) and returns true; Steps executes the
// operation and calls step again. step returns false, having issued
// nothing, when the body needs its own coroutine — to block in Spin or
// SpinWait, or to run blocking code — and Steps returns.
//
// The point of the form: while this worker is parked with no operation
// pending, the running worker calls step here, on its own stack, whenever
// this worker is the globally earliest (see yield and peerMayAct). That is
// the same position in global order at which this worker would have been
// resumed to run the same host code, so every virtual number is identical;
// the coroutine switch is gone. step must therefore keep its state outside
// the stack (it may be entered from any coroutine of the phase) and must
// not depend on which coroutine runs it. The owner can wake holding an
// operation a peer's step issued and must execute it before stepping
// again; it can also wake to find a peer's step returned false (step is
// cleared), and then returns without calling it a second time.
func (w *Worker) Steps(step func(*Worker) bool) {
	w.step = step
	for w.step != nil {
		if w.op.kind == opNone && !step(w) {
			w.step = nil
			return
		}
		w.Exec()
	}
}

// execOp runs the accounting of the worker's pending operation: the LLC
// touch, one device access covering every missing line, and the cost
// applied to the worker's clock (max of LLC hit latency, device completion,
// and any in-flight prefetch readiness). It is called either by the owner
// (Exec) or by the running worker on a parked owner's behalf (yield);
// both execute at the same position in the global operation order.
func (w *Worker) execOp() {
	op := &w.op // in place: a copy would reload issue's fresh stores with wide moves
	kind := op.kind
	op.kind = opNone
	c := w.m.LLC
	switch kind {
	case opWord, opRange:
		var missBytes int64
		var ready Time
		if kind == opWord {
			hit, r := c.touchLine(op.dev, op.addr&^(LineSize-1), w.now, op.write, false)
			if !hit {
				missBytes = LineSize
			}
			ready = r
		} else {
			miss, r := c.touchRange(op.dev, op.addr, op.n, w.now, op.write, op.seq)
			missBytes = int64(miss) * LineSize
			ready = r
		}
		cost := c.hitLatency
		if missBytes > 0 {
			// Cached stores fetch missing lines first (read-for-ownership),
			// so both reads and writes charge a device *read* here; the
			// dirty data reaches the device later via asynchronous cache
			// writebacks.
			complete := op.dev.access(w.now, opRead, missBytes, op.seq)
			if complete-w.now > cost {
				cost = complete - w.now
			}
		}
		if ready > w.now+cost {
			cost = ready - w.now
		}
		w.now += cost
	case opNT:
		c.invalidateRange(op.dev, op.addr, op.n)
		w.now = op.dev.access(w.now, opWriteNT, op.n, true)
	case opPrefetch:
		if miss := c.missingLines(op.dev, op.addr, op.n); miss > 0 {
			done := op.dev.access(w.now, opRead, int64(miss)*LineSize, op.seq)
			c.installPrefetch(op.dev, op.addr, op.n, w.now, done)
		}
		w.now += 2 // issue overhead
	case opCLWB:
		line := op.addr &^ (LineSize - 1)
		pd := w.m.pd
		dirty := c.cleanLine(op.dev, line)
		if pd != nil && !pd.eADR && pd.isDirty(line) {
			dirty = true
		}
		if dirty {
			done := op.dev.access(w.now, opWrite, LineSize, false)
			if done > w.flushDone {
				w.flushDone = done
			}
		}
		if pd != nil {
			pd.onCLWB(op.dev, line)
		}
		w.now += 4 // issue overhead
	}
}

// advanceSpin runs one iteration of a parked SpinWait loop on the owning
// worker's behalf, without resuming it: it evaluates the loop condition at
// the worker's current virtual time and, if the worker would keep
// spinning, replicates Spin's fault/watchdog bookkeeping and advances its
// clock by the spin quantum. It reports false when the condition holds and
// the worker must be resumed for real. The caller has checked peerMayAct:
// a halt or a reached crash time resumes the worker to unwind on its own
// coroutine.
//
// The condition closure runs under the cooperative scheduler at exactly
// the interleaving point where the parked worker would have been resumed,
// so it observes the same simulated state the worker's own check would —
// results are bit-identical to resuming it for every quantum (the
// eager-yield golden tests cross-check this).
func (w *Worker) advanceSpin() bool {
	if w.spinCond() {
		return false
	}
	if w.spinStreak == 0 {
		w.spinSince = w.now
	}
	if w.spinStreak++; w.spinStreak >= watchdogSpins {
		w.watchdogCheck()
	}
	w.now += w.spinQuantum
	return true
}

// SpinWait models the busy-wait loop `for !cond() { w.Spin(d) }` and is
// the preferred form for pure waits whose condition reads only simulated
// state (barrier generations, termination flags, other workers' stacks).
// The loop semantics — condition checks at quantum boundaries, watchdog
// streak accounting, fault windows — are identical to writing the loop
// out; the difference is purely host-side: while the worker is the
// earliest runnable one but would only spin, the scheduler advances its
// clock in place (see advanceSpin) instead of paying a coroutine switch
// per quantum.
//
// cond must be free of charged memory operations and must not depend on
// which worker's coroutine evaluates it. Under eager-yield no peer acts for
// the worker (peerMayAct), so the literal loop is all that runs.
func (w *Worker) SpinWait(d Time, cond func() bool) {
	if d < 1 {
		d = 1
	}
	w.spinCond, w.spinQuantum = cond, d
	for !cond() {
		w.Spin(d)
	}
	w.spinCond = nil
}

// Advance models CPU-only work of duration d (no scheduler yield; yields
// happen at memory operations, which dominate GC time).
func (w *Worker) Advance(d Time) {
	if d > 0 {
		if w.pipe != nil {
			w.pipe.adv += d
		} else {
			w.now += d
		}
	}
}

// Spin models one iteration of a busy-wait loop: it advances time by d and
// yields so that other workers can make the awaited progress. Busy-wait
// loops in worker bodies must call Spin or the simulation livelocks.
func (w *Worker) Spin(d Time) {
	if d < 1 {
		d = 1
	}
	if w.pipe != nil {
		w.pipe.drain()
	}
	w.checkFault()
	if w.spinStreak == 0 {
		w.spinSince = w.now
	}
	if w.spinStreak++; w.spinStreak >= watchdogSpins {
		w.watchdogCheck()
	}
	w.now += d
	w.yield()
}

// Every charged operation below is two halves. Its Issue* form records it
// for the watchdog, fires an armed time trigger (noteOp) and publishes its
// descriptor; the operation takes effect — and the worker's clock moves —
// in Exec. The blocking form is Issue* followed by Exec; step-form bodies
// (see Steps) call the Issue* forms directly.

// Read models a load of n bytes at addr from dev, through the LLC.
// seq marks the access as part of a sequential stream (no random-access
// amplification at the device).
func (w *Worker) Read(dev *Device, addr uint64, n int64, seq bool) {
	w.IssueRead(dev, addr, n, seq)
	w.Exec()
}

// IssueRead issues Read's operation; n <= 0 issues nothing.
func (w *Worker) IssueRead(dev *Device, addr uint64, n int64, seq bool) {
	if n > 0 {
		w.noteOp("read", dev, addr)
		w.issue(opRange, false, seq, dev, addr, n)
	}
}

// Write models a cached store of n bytes at addr. Missing lines are
// fetched first (read-for-ownership, synchronous device reads); the dirty
// data reaches the device later via asynchronous cache writebacks. This is
// why cached stores still consume NVM *read* bandwidth and why their write
// traffic is random at eviction time.
func (w *Worker) Write(dev *Device, addr uint64, n int64, seq bool) {
	w.IssueWrite(dev, addr, n, seq)
	w.Exec()
}

// IssueWrite issues Write's operation; n <= 0 issues nothing.
func (w *Worker) IssueWrite(dev *Device, addr uint64, n int64, seq bool) {
	if n > 0 {
		w.noteOp("write", dev, addr)
		w.issue(opRange, true, seq, dev, addr, n)
	}
}

// ReadWord models a random load contained in a single cache line (an
// aligned heap word). It is exactly Read(dev, addr, 8, false) — same
// counters, same virtual time — with the range bookkeeping specialized to
// the one-line case, which dominates the GC's slot and header traffic.
func (w *Worker) ReadWord(dev *Device, addr uint64) {
	w.IssueReadWord(dev, addr)
	w.Exec()
}

// IssueReadWord issues ReadWord's operation.
func (w *Worker) IssueReadWord(dev *Device, addr uint64) {
	w.noteOp("read", dev, addr)
	w.issue(opWord, false, false, dev, addr, 0)
}

// WriteWord models a random cached store contained in a single cache line;
// it is exactly Write(dev, addr, 8, false) with the range bookkeeping
// specialized away (see ReadWord).
func (w *Worker) WriteWord(dev *Device, addr uint64) {
	w.IssueWriteWord(dev, addr)
	w.Exec()
}

// IssueWriteWord issues WriteWord's operation.
func (w *Worker) IssueWriteWord(dev *Device, addr uint64) {
	w.noteOp("write", dev, addr)
	w.issue(opWord, true, false, dev, addr, 0)
}

// WriteNT models a non-temporal (streaming) store of n bytes: it bypasses
// and invalidates the LLC and is throughput-bound on the device's
// non-temporal write path. Used for sequential write-back of cached
// survivor regions.
func (w *Worker) WriteNT(dev *Device, addr uint64, n int64) {
	w.IssueWriteNT(dev, addr, n)
	w.Exec()
}

// IssueWriteNT issues WriteNT's operation; n <= 0 issues nothing.
func (w *Worker) IssueWriteNT(dev *Device, addr uint64, n int64) {
	if n > 0 {
		w.noteOp("write-nt", dev, addr)
		w.issue(opNT, false, false, dev, addr, n)
	}
}

// Fence models a store fence ordering non-temporal writes (issued once
// before GC end in the optimized collector).
func (w *Worker) Fence() {
	w.noteOp("fence", nil, 0)
	w.Advance(30)
}

// CLWB models a cache-line write-back instruction: if the line at addr is
// dirty in the LLC (or is otherwise outside the persistence domain) it is
// written back to the device; the line stays valid-clean in the cache.
// The write-back proceeds asynchronously — the worker pays only issue
// overhead here and waits for completion at the next PersistFence. The
// flushed line enters the persistence domain when that fence retires.
func (w *Worker) CLWB(dev *Device, addr uint64) {
	w.IssueCLWB(dev, addr)
	w.Exec()
}

// IssueCLWB issues CLWB's operation.
func (w *Worker) IssueCLWB(dev *Device, addr uint64) {
	w.noteOp("clwb", dev, addr)
	w.issue(opCLWB, false, false, dev, addr, 0)
}

// PersistFence models the SFENCE that orders preceding CLWBs: it retires
// once every write-back this worker issued has completed, committing the
// flushed lines to the persistence domain.
func (w *Worker) PersistFence() {
	if w.pipe != nil {
		w.pipe.drain()
	}
	w.noteOp("persist-fence", nil, 0)
	w.now += 30 // issue overhead
	if w.flushDone > w.now {
		w.now = w.flushDone
	}
	if pd := w.m.pd; pd != nil {
		pd.onFence()
	}
}

// Prefetch issues a software prefetch for [addr, addr+n): missing lines
// start an asynchronous device read and are installed with a future ready
// time; a later demand access pays only the remaining latency. The
// prefetch itself costs only issue overhead.
func (w *Worker) Prefetch(dev *Device, addr uint64, n int64, seq bool) {
	w.IssuePrefetch(dev, addr, n, seq)
	w.Exec()
}

// IssuePrefetch issues Prefetch's operation; n <= 0 issues nothing.
func (w *Worker) IssuePrefetch(dev *Device, addr uint64, n int64, seq bool) {
	if n > 0 {
		w.noteOp("prefetch", dev, addr)
		w.issue(opPrefetch, false, seq, dev, addr, n)
	}
}
