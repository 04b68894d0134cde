package memsim

import (
	"runtime"
	"sync/atomic"
)

// pipeline charges a single-worker phase on a second goroutine. A charged
// operation returns nothing to the code that issued it (see opDesc), so the
// worker's body is a functional front end: Exec appends the issued
// operation, with the Advance time since the previous one, to a batch, and
// an accountant goroutine replays full batches in issue order through the
// same execOp. During the phase the accountant owns the worker's clock and
// flushDone (held in acct, a shadow Worker) and the LLC and every device's
// queue, mix ledger, stats and trace. A host read of that state drains the
// pipeline first (drain): Worker.Now, PersistFence, Spin (so SpinWait),
// Cache.Stats, Device.Stats/Tier.Stats and Device.Trace. Run detaches the
// pipeline on exit, deferred, so a panicking body leaves no goroutine
// behind.
//
// Pipelining is off wherever host code reads accountant state per
// operation: multi-worker phases (peers read each other's clocks at every
// yield), EagerYield (the synchronous reference), a persistence domain and
// an armed FaultPlan (see Machine.mayPipeline). Installing either of the
// last two during a phase detaches the pipeline for the rest of it, and so does a first full batch that finds no idle
// core (takeCore).
//
// Results are bit-identical to charging inline: the accountant runs the
// same operations in the same order from the same clocks, and nothing the
// body reads between two drains depends on them.
type pipeline struct {
	// Producer side: the phase body's goroutine.
	w        *Worker  // the attached phase's worker; nil between phases
	cur      *opBatch // batch being filled
	adv      Time     // Advance time since the last issued operation
	live     bool     // operations issued since the last drain
	running  bool     // the accountant goroutine is up
	inflight int      // batches sent and not yet returned
	spare    []*opBatch
	made     int // batches allocated, at most ringBatches

	// The ring, made at the machine's first accountant and reused by every
	// later one. A nil batch on full stops the accountant, which answers
	// with a nil on free. Each holds ringBatches: no more batches exist,
	// and the nil goes only to an empty ring, so no send ever blocks.
	full chan *opBatch // producer → accountant, in issue order
	free chan *opBatch // accountant → producer, replayed

	_ [64]byte // keep the accountant's hot fields off the producer's lines

	// Accountant side while batches are in flight; the producer reads it
	// only after taking every in-flight batch back.
	acct    Worker
	failure any // a panic raised while replaying, re-raised by drain

	_ [64]byte
}

// pipedOp is one issued operation and the CPU time that preceded it.
type pipedOp struct {
	op  opDesc
	adv Time
}

// Ring geometry: a batch amortizes one channel handoff over batchOps
// operations; ringBatches bounds how far the body runs ahead.
const (
	batchOps    = 1024
	ringBatches = 4
)

type opBatch struct {
	n   int
	ops [batchOps]pipedOp
}

// mayPipeline reports whether a single-worker phase may be charged on the
// accountant: nothing in it reads accounting state per operation.
func (m *Machine) mayPipeline() bool {
	return !m.eagerYield && m.pd == nil && m.fault == nil
}

// attach starts pipelining w's phase. No goroutine starts until the first
// batch fills: a short phase is replayed inline at its first drain.
func (p *pipeline) attach(w *Worker) {
	p.w = w
	w.pipe = p
	p.acct.m = w.m
	if p.cur == nil {
		p.cur = p.newBatch()
	}
}

// detach drains the phase, stops the accountant and returns w to inline
// charging. It is idempotent and does nothing on a nil pipeline or between
// phases.
func (p *pipeline) detach() {
	if p == nil || p.w == nil {
		return
	}
	defer func() {
		if p.running {
			p.full <- nil
			<-p.free
			p.running = false
			busyCores.Add(-1)
		}
		p.w.pipe = nil
		p.w = nil
	}()
	p.drain()
}

// issue appends w's pending operation to the current batch (Exec's
// pipelined form).
func (p *pipeline) issue(w *Worker) {
	if !p.live {
		// The accountant is idle: seed its clock from the drained worker.
		p.acct.now, p.acct.flushDone = w.now, w.flushDone
		p.live = true
	}
	b := p.cur
	e, op := &b.ops[b.n], &w.op
	// Field by field, for the reason Worker.issue gives.
	e.op.kind, e.op.write, e.op.seq, e.op.dev, e.op.addr, e.op.n = op.kind, op.write, op.seq, op.dev, op.addr, op.n
	e.adv = p.adv
	op.kind = opNone
	p.adv = 0
	if b.n++; b.n == batchOps {
		p.send()
	}
}

// busyCores counts the goroutines simulating in the process: one per phase
// in progress on any machine (Run's caller runs its workers one at a time)
// and one per accountant.
var busyCores atomic.Int32

// takeCore reserves a core for an accountant, without blocking, if one is
// idle: busy goroutines stay within GOMAXPROCS. A suite running machines
// side by side on every core then charges inline, where the handoffs
// would only add to the work those cores share.
func takeCore() bool {
	if busyCores.Add(1) <= int32(runtime.GOMAXPROCS(0)) {
		return true
	}
	busyCores.Add(-1)
	return false
}

// send hands the full current batch to the accountant and takes an empty
// one, waiting for a replayed batch when the ring is full. The first send
// of a phase starts the accountant, or, with no idle core, detaches
// the pipeline and charges the rest of the phase inline.
func (p *pipeline) send() {
	if !p.running {
		if !takeCore() {
			p.detach()
			return
		}
		if p.full == nil {
			p.full = make(chan *opBatch, ringBatches)
			p.free = make(chan *opBatch, ringBatches)
		}
		p.running = true
		go p.account()
	}
	p.full <- p.cur
	p.inflight++
	switch {
	case len(p.spare) > 0:
		p.cur = p.spare[len(p.spare)-1]
		p.spare = p.spare[:len(p.spare)-1]
	case p.made < ringBatches:
		p.cur = p.newBatch()
	default:
		p.cur = <-p.free
		p.inflight--
	}
}

func (p *pipeline) newBatch() *opBatch {
	p.made++
	return new(opBatch)
}

// drain brings the worker up to date: it waits for every in-flight batch,
// replays the partial one inline and hands the clock back to the worker.
// Afterwards the producer owns all accounting state until the next issue.
func (p *pipeline) drain() {
	w := p.w
	if p.live {
		for ; p.inflight > 0; p.inflight-- {
			p.spare = append(p.spare, <-p.free)
		}
		if f := p.failure; f != nil {
			p.failure, p.cur.n, p.live = nil, 0, false
			panic(f)
		}
		p.replay(p.cur)
		w.now, w.flushDone = p.acct.now, p.acct.flushDone
		p.live = false
	}
	w.now += p.adv
	p.adv = 0
}

// account is the accountant goroutine: replay batches as they arrive and
// return them, until the nil batch. After a panic it only returns batches,
// so the producer never blocks; drain re-raises the panic on the body's
// goroutine.
func (p *pipeline) account() {
	for b := <-p.full; b != nil; b = <-p.full {
		if p.failure == nil {
			p.replaySafely(b)
		}
		b.n = 0 // a failed replay leaves it set
		p.free <- b
	}
	p.free <- nil
}

func (p *pipeline) replaySafely(b *opBatch) {
	defer func() {
		if r := recover(); r != nil {
			p.failure = r
		}
	}()
	p.replay(b)
}

// replay charges a batch's operations on the accountant's clock.
func (p *pipeline) replay(b *opBatch) {
	a := &p.acct
	for i := range b.ops[:b.n] {
		e := &b.ops[i]
		a.now += e.adv
		a.op = e.op
		a.execOp()
	}
	b.n = 0
}

// sync drains the attached phase, if any, before a host read of accounting
// state (Cache.Stats, Device.Stats, Device.Trace).
func (p *pipeline) sync() {
	if p != nil && p.w != nil {
		p.drain()
	}
}
