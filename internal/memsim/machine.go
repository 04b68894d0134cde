package memsim

import (
	"fmt"
	"iter"
	"math"
	"math/bits"
)

// Config parameterizes a simulated machine.
type Config struct {
	// Tiers is the machine's memory: one spec per tier, in reporting
	// order. It is the only description of the platform, eADR included
	// (TierSpec.EADR). The slice may be shared by copies of the Config:
	// clone it before writing to an element.
	Tiers []TierSpec

	LLCBytes      int64 // last-level cache capacity
	LLCAssoc      int
	LLCHitLatency Time

	TraceBucket Time // bandwidth trace bucket width; 0 disables tracing

	// EagerYield selects the reference schedule: the running worker does
	// nothing on a parked peer's behalf (no delegated accounting, no spin
	// advanced in place, no peer-run steps; see peerMayAct), so every such
	// point costs a coroutine switch. Virtual-time results are identical
	// either way — the golden determinism tests assert it — which is what
	// makes this mode the oracle the default one is checked against.
	EagerYield bool
}

// watchdogSpins bounds consecutive Spin iterations before the deadlock
// watchdog inspects the phase: if every unfinished worker is also
// spinning, the phase can never progress and Run panics with a
// *WatchdogError carrying a per-worker state dump instead of busy-looping
// the host forever. It is large enough that legitimate all-spinning
// windows (barrier arrival, work-stealing termination detection) resolve
// orders of magnitude earlier, yet a true deadlock trips in microseconds
// of host time.
const watchdogSpins = 1 << 14

// DefaultConfig returns the calibrated default machine: a volatile "dram"
// tier of server DRAM, a persistent "nvm" tier of six interleaved Optane
// DIMMs behind an ADR domain, and a scaled-down shared LLC (the heap is
// scaled down from the paper's 16 GB by the same factor). Each call
// returns a fresh Tiers slice.
func DefaultConfig() Config {
	return Config{
		Tiers: []TierSpec{
			{Name: "dram", Profile: DRAMProfile()},
			{Name: "nvm", Profile: OptaneProfile(), Persistent: true},
		},
		LLCBytes:      1 << 20,
		LLCAssoc:      16,
		LLCHitLatency: 15,
		TraceBucket:   250 * Microsecond,
	}
}

// PhaseMark labels a point in virtual time (e.g. GC start/end), used to
// demarcate GC intervals on bandwidth plots.
type PhaseMark struct {
	T     Time
	Label string
}

// Machine is a simulated host: a topology of memory tiers behind a shared
// LLC and a virtual clock. Parallel phases are executed with Run.
type Machine struct {
	// DRAM and NVM are compatibility aliases into the topology: DRAM is
	// the tier named "dram" (else the first volatile tier, else the first
	// tier), NVM the tier named "nvm" (else the first persistent tier,
	// else the last tier). New code should resolve tiers by name via
	// Topology instead.
	DRAM *Device
	NVM  *Device
	LLC  *Cache

	topo *Topology

	now   Time
	marks []PhaseMark

	eagerYield bool

	// Persistence domain and fault injection (see persist.go).
	pd        *PersistDomain
	fault     *FaultPlan
	faultTime Time // armed CrashAtTime trigger; 0 when disarmed
	crashed   bool
	crashTime Time
	halted    bool // workers unwind via crashSignal until cleared

	// Deadlock watchdog (see watchdogSpins).
	wdErr *WatchdogError

	// switches counts the real coroutine switches (parks) of every parallel
	// phase so far. It is a pure function of the simulation (tests pin it).
	switches int64

	// pipe charges single-worker phases on a second goroutine (see
	// pipeline); the LLC and every tier's device drain it before a read.
	pipe *pipeline
}

// NewMachine builds a machine from the config. An invalid tier topology
// (no tiers, empty or duplicate names) is a programming error and panics;
// command-line front ends validate tier lists before building machines.
func NewMachine(cfg Config) *Machine {
	topo, err := NewTopology(cfg.Tiers, cfg.TraceBucket)
	if err != nil {
		panic(err)
	}
	m := &Machine{
		topo:       topo,
		LLC:        NewCache(cfg.LLCBytes, cfg.LLCAssoc, cfg.LLCHitLatency),
		eagerYield: cfg.EagerYield,
		pipe:       new(pipeline),
	}
	m.LLC.pipe = m.pipe
	for _, t := range topo.tiers {
		t.pipe = m.pipe
	}
	m.DRAM = m.aliasTier("dram", false)
	m.NVM = m.aliasTier("nvm", true)
	return m
}

// aliasTier resolves a compatibility alias: the tier with the classic
// name if present, else the first tier with the wanted persistence
// attribute, else an end of the declaration order.
func (m *Machine) aliasTier(name string, persistent bool) *Device {
	if t, ok := m.topo.Tier(name); ok {
		return t.Device
	}
	for _, t := range m.topo.Tiers() {
		if t.Persistent() == persistent {
			return t.Device
		}
	}
	tiers := m.topo.Tiers()
	if persistent {
		return tiers[len(tiers)-1].Device
	}
	return tiers[0].Device
}

// Topology returns the machine's memory-tier topology.
func (m *Machine) Topology() *Topology { return m.topo }

// Tier returns the named tier of the machine's topology.
func (m *Machine) Tier(name string) (*Tier, bool) { return m.topo.Tier(name) }

// TierOf returns the tier owning dev, or nil for a foreign device.
func (m *Machine) TierOf(dev *Device) *Tier { return m.topo.TierOf(dev) }

// Now returns the machine's virtual clock (the end of the last phase).
func (m *Machine) Now() Time { return m.now }

// Switches returns the number of real coroutine switches every parallel
// phase of the machine has made so far: the host cost that peer-run steps,
// delegated accounting and in-place spins exist to avoid.
func (m *Machine) Switches() int64 { return m.switches }

// Mark records a labeled point at the current virtual time.
func (m *Machine) Mark(label string) {
	m.marks = append(m.marks, PhaseMark{T: m.now, Label: label})
}

// Marks returns all recorded phase marks in order.
func (m *Machine) Marks() []PhaseMark { return m.marks }

// Run executes a phase with n simulated workers, all starting at the
// current virtual clock. It returns the phase's elapsed virtual time (the
// latest worker finish) and advances the machine clock to the phase end.
//
// With n > 1 each worker body runs on its own iter.Pull coroutine and Run
// is the dispatcher: a single loop on the caller's goroutine that resumes
// the worker with the smallest (virtual time, id) key, waits for it to
// park or return, and resumes whichever worker it named as its successor.
// Exactly one worker executes at a time and device operations are globally
// ordered by issue time, so the simulation is deterministic; a switch is
// two coroutine switches on the caller's own OS thread, with no run queue,
// wake-up or lock traffic. Worker bodies must not block on anything other
// than the scheduler (use Worker.Spin in busy-wait loops).
//
// With n <= 1 the body runs on the caller's goroutine and, unless
// mayPipeline says otherwise, its accounting runs on a second one (see
// pipeline), with results identical to charging each operation inline.
//
// A panic in a worker body (other than the internal crash/watchdog unwind)
// propagates out of Run on the caller's goroutine with its original value,
// after every other worker's coroutine has been unwound and released.
func (m *Machine) Run(n int, body func(*Worker)) Time {
	busyCores.Add(1)
	defer busyCores.Add(-1)
	start := m.now
	if n <= 1 {
		w := &Worker{id: 0, now: start, m: m}
		if m.mayPipeline() {
			m.pipe.attach(w)
			defer m.pipe.detach()
		}
		runBody(w, body)
		m.pipe.detach()
		w.finished = true
		return m.endPhase(start, w.now)
	}

	if n > MaxWorkers {
		panic(fmt.Sprintf("memsim: Run supports at most %d workers per phase", MaxWorkers))
	}
	s := &scheduler{body: body, all: make([]Worker, n), tree: newKeyTree(n, start)}
	for i := range s.all {
		w := &s.all[i]
		w.id, w.now, w.m, w.sched = i, start, m, s
		w.resume, w.stop = iter.Pull(w.run)
	}
	s.dispatchLoop()

	end := start
	for i := range s.all {
		if t := s.all[i].now; t > end {
			end = t
		}
	}
	return m.endPhase(start, end)
}

// HorizonBits bounds virtual time: a clock stays below 2^HorizonBits ns,
// about 417 days, so a time fits the packed words that hold one —
// Worker.qkey and the LLC's stamp here, cassandra.Queue's server keys and
// the fleet replay's latencies above.
const HorizonBits = 55

// maxTime is the last instant the packed words can hold: Worker.qkey and
// the LLC's stamp both keep a time (the stamp, time+1) in HorizonBits bits.
const maxTime Time = 1<<HorizonBits - 2

// endPhase advances the machine clock to the phase end, re-raises a
// watchdog trip on the caller's goroutine, and returns the elapsed time.
// A clock past maxTime has wrapped a packed word somewhere in the phase
// and reordered workers or cache victims; checked here, once per phase.
func (m *Machine) endPhase(start, end Time) Time {
	if end > maxTime {
		panic(fmt.Sprintf("memsim: virtual clock %d ns past the 2^55 ns horizon", end))
	}
	if end > m.now {
		m.now = end
	}
	if m.wdErr != nil {
		err := m.wdErr
		m.wdErr = nil
		panic(err)
	}
	return m.now - start
}

// runBody executes a worker body, absorbing the crashSignal unwind that an
// injected fault, the deadlock watchdog or a stopping dispatcher uses to
// drain the phase. Any other panic propagates.
func runBody(w *Worker, body func(*Worker)) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashSignal); ok {
				return
			}
			panic(r)
		}
	}()
	body(w)
}

// scheduler is the shared state of one parallel phase. Only one coroutine
// of the phase (a worker, or the dispatcher between two workers) runs at
// any instant and every switch is a direct coroutine transfer, so none of
// it needs a lock. tree holds the keys of the workers waiting to run; the
// one holding the CPU and those that finished are out of it (noKey).
type scheduler struct {
	tree keyTree
	next *Worker // successor named by the worker that last parked or finished
	cur  *Worker // the worker whose coroutine holds the CPU (see Worker.yield)
	all  []Worker
	body func(*Worker)
}

// dispatchLoop is the phase's event loop: resume the earliest worker, and
// when it parks (Worker.yield) or returns (Worker.run) resume the
// successor it left in next, until a finishing worker finds nothing
// runnable. If a worker body panics the panic surfaces from resume; the
// deferred stop loop then unwinds every coroutine still parked (their park
// reports false, see Worker.switchTo) so none outlives the phase.
func (s *scheduler) dispatchLoop() {
	defer func() {
		for i := range s.all {
			s.all[i].stop()
		}
	}()
	for w := s.takeTop(); w != nil; w = s.next {
		w.resume()
	}
}

// takeTop takes the earliest runnable worker out of the tree, to be
// resumed; nil when none is runnable.
func (s *scheduler) takeTop() *Worker {
	top := s.tree[1]
	if top == noKey {
		return nil
	}
	w := &s.all[top&0xff]
	s.tree.set(w.id, noKey)
	return w
}

// noKey is the leaf of a worker that is not waiting to run: it holds the
// CPU or has finished. Every real key is smaller (see maxTime).
const noKey Time = math.MaxInt64

// keyTree is the queue of runnable workers: a winner tree over their packed
// (now, id) scheduling keys (see Worker.qkey). It has 2*leaves words, leaves
// the power of two that fits the phase's workers; leaf leaves+id is worker
// id's key, or noKey, and every inner node is the smaller of its two
// children, so t[1] is the earliest runnable key and names its worker in
// its low byte. A key change is a leaf store and one recomputed node per
// level on the way up (set), whatever the key did; nothing is compared and
// jumped on, because which child wins is as good as random.
type keyTree []Time

// newKeyTree returns the tree of n workers all waiting at time start.
func newKeyTree(n int, start Time) keyTree {
	leaves := 1 << bits.Len(uint(n-1))
	t := make(keyTree, 2*leaves)
	for i := range t[leaves:] {
		t[leaves+i] = noKey
		if i < n {
			t[leaves+i] = start<<8 | Time(i)
		}
	}
	for i := leaves - 1; i > 0; i-- {
		t[i] = min(t[2*i], t[2*i+1])
	}
	return t
}

// set stores worker id's key and replays its path to the root. The min is
// arithmetic (valid for operands in [0, 2^63), which keys and noKey are).
func (t keyTree) set(id int, key Time) {
	i := len(t)/2 + id
	t[i] = key
	for i > 1 {
		d := t[i^1] - key
		key += d & (d >> 63)
		i >>= 1
		t[i] = key
	}
}
