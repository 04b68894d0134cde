package memsim

import (
	"reflect"
	"runtime"
	"testing"
)

// schedSteps is schedWorkload written in step form: the same operations,
// CPU advances and log appends, with the body's position held in a struct
// (one per worker) instead of on a stack. Its one blocking section — the
// Spin every thirteenth iteration — is entered by step returning false.
type schedSteps struct {
	m    *Machine
	log  *[]uint8
	i    int
	pc   int
	base uint64
}

func (b *schedSteps) step(w *Worker) bool {
	m, i := b.m, b.i
	for {
		b.pc++
		switch b.pc - 1 {
		case 0:
			if i == 120 {
				b.pc = 0
				return false
			}
			w.IssueRead(m.NVM, b.base+uint64(i*4096), 256, false)
			return true
		case 1:
			if b.log != nil {
				w.Advance(Time(i%5) + 1)
			}
			w.IssueWrite(m.NVM, b.base+uint64(i*4096), 16, false)
			return true
		case 2:
			if b.log != nil {
				*b.log = append(*b.log, uint8(w.ID()))
			}
			if i%4 == 0 {
				w.IssuePrefetch(m.NVM, b.base+uint64((i+8)*4096), 128, false)
				return true
			}
		case 3:
			if i%7 == 0 {
				w.IssueRead(m.DRAM, uint64(i*64), 64, i%2 == 0)
				return true
			}
		case 4:
			if i%9 == 0 {
				w.IssueWriteNT(m.NVM, b.base+1<<21+uint64(i)*256, 256)
				return true
			}
		case 5:
			if i%13 == 0 {
				return false // the owner spins, then calls Steps again
			}
		case 6:
			w.Advance(Time(i % 3))
			b.i++
			i = b.i
			b.pc = 0
		}
	}
}

// schedStepsWorkload is the phase body driving schedSteps: Steps until the
// machine asks for its coroutine, run the blocking section, repeat.
func schedStepsWorkload(m *Machine, log *[]uint8) func(*Worker) {
	return func(w *Worker) {
		b := &schedSteps{m: m, log: log, base: uint64(w.ID()) << 22}
		for {
			w.Steps(b.step)
			if b.i == 120 {
				return
			}
			w.Spin(5)
		}
	}
}

func runSchedBody(cfg Config, workers int, eager bool, body func(*Machine) func(*Worker)) (schedSnapshot, int64) {
	cfg.EagerYield = eager
	m := NewMachine(cfg)
	el := m.Run(workers, body(m))
	return schedSnapshot{elapsed: el, now: m.Now(), nvm: m.NVM.Stats(), dram: m.DRAM.Stats(), llc: m.LLC.Stats()}, m.switches
}

// TestStepsMatchBlocking: a body in step form must reproduce its blocking
// form bit-for-bit — virtual times, device and cache counters, and the
// order in which host effects land (TestGoldenHostEffectOrder's log) — at
// every worker count and in both scheduling modes, because a peer-run step
// executes at exactly the position its owner would have been resumed at.
func TestStepsMatchBlocking(t *testing.T) {
	cfg := testConfig()
	cfg.LLCAssoc = 4
	for _, workers := range []int{1, 2, 3, 16, 17, 56} {
		var wantLog []uint8
		want, _ := runSchedBody(cfg, workers, true, func(m *Machine) func(*Worker) { return schedWorkload(m, &wantLog) })
		if len(wantLog) != workers*120 {
			t.Fatalf("workers=%d: blocking reference ran %d host effects, want %d", workers, len(wantLog), workers*120)
		}
		for _, eager := range []bool{false, true} {
			var log []uint8
			got, _ := runSchedBody(cfg, workers, eager, func(m *Machine) func(*Worker) { return schedStepsWorkload(m, &log) })
			if got != want {
				t.Errorf("workers=%d eager=%v: step form diverged from the blocking form:\n got %+v\nwant %+v", workers, eager, got, want)
			}
			if !reflect.DeepEqual(log, wantLog) {
				t.Errorf("workers=%d eager=%v: host effects landed in a different order than in the blocking form", workers, eager)
			}
		}
	}
}

// kernelOps is the per-worker iteration count of the handoff kernel
// below (the shape benchmarks/kernels.go times as memsim.handoff_ns_per_op).
const kernelOps = 2000

func kernelBlocking(m *Machine) func(*Worker) {
	return func(w *Worker) {
		base := uint64(w.ID()) << 24
		for j := 0; j < kernelOps; j++ {
			w.Read(m.NVM, base+uint64(j*4096), 256, false)
			w.Write(m.NVM, base+uint64(j*4096), 16, false)
		}
	}
}

func kernelSteps(m *Machine) func(*Worker) {
	return func(w *Worker) {
		base := uint64(w.ID()) << 24
		k := 0 // operations issued so far
		w.Steps(func(w *Worker) bool {
			if k == 2*kernelOps {
				return false
			}
			addr := base + uint64(k/2*4096)
			if k%2 == 0 {
				w.IssueRead(m.NVM, addr, 256, false)
			} else {
				w.IssueWrite(m.NVM, addr, 16, false)
			}
			k++
			return true
		})
	}
}

// TestStepsAvoidSwitches pins what the step form is for. The switch count
// of a phase is a pure function of the simulation, so it is asserted
// exactly: the blocking kernel at 16 workers still parks as often as it
// did before Steps existed (its count was taken on the tree without it),
// while the same kernel in step form parks for under 5 % of its
// operations — with identical virtual results.
func TestStepsAvoidSwitches(t *testing.T) {
	const workers = 16
	const ops = workers * 2 * kernelOps
	blocking, bsw := runSchedBody(testConfig(), workers, false, kernelBlocking)
	steps, ssw := runSchedBody(testConfig(), workers, false, kernelSteps)
	if steps != blocking {
		t.Errorf("step form diverged from the blocking form:\n got %+v\nwant %+v", steps, blocking)
	}
	t.Logf("%d ops: blocking form %d switches (%.3f/op), step form %d (%.3f/op)",
		ops, bsw, float64(bsw)/ops, ssw, float64(ssw)/ops)
	const blockingSwitches = 55752
	if bsw != blockingSwitches {
		t.Errorf("blocking form made %d switches, want %d (unchanged)", bsw, blockingSwitches)
	}
	if ssw*20 >= ops {
		t.Errorf("step form made %d switches for %d ops, want < 5 %%", ssw, ops)
	}
}

// TestPeerRunStepPanicSurfacesFromRun: a step that panics while a peer is
// running it unwinds the peer's stack, not its owner's. The panic must
// still surface from Run with its original value, every worker body must
// unwind, and no coroutine may outlive the phase.
func TestPeerRunStepPanicSurfacesFromRun(t *testing.T) {
	type boom struct{ id int }
	const workers, victim = 4, 2
	m := testMachine()
	before := runtime.NumGoroutine()
	unwound := 0
	ranByPeer := false
	var got any
	func() {
		defer func() { got = recover() }()
		m.Run(workers, func(w *Worker) {
			defer func() { unwound++ }()
			k := 0
			w.Steps(func(sw *Worker) bool {
				if sw.ID() == victim && k == 50 && sw.sched.cur != sw {
					ranByPeer = true
					panic(boom{sw.ID()})
				}
				if k == 400 {
					return false
				}
				sw.IssueRead(m.NVM, uint64(sw.ID()*1<<20+k*64), 8, false)
				k++
				return true
			})
		})
		t.Error("Run returned after a step panicked")
	}()
	if !ranByPeer {
		t.Fatal("the victim's step never ran on a peer's stack — the test exercises nothing")
	}
	if got != (boom{victim}) {
		t.Errorf("recovered %#v, want %#v", got, boom{victim})
	}
	if unwound != workers {
		t.Errorf("%d worker bodies unwound, want %d", unwound, workers)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after the panic, %d before", after, before)
	}
}

// TestBlockingOpInsidePeerRunStepPanics: a step that calls a blocking
// operation would park the runner's coroutine in the owner's name. The
// scheduler refuses with a panic instead.
func TestBlockingOpInsidePeerRunStepPanics(t *testing.T) {
	m := testMachine()
	var got any
	func() {
		defer func() { got = recover() }()
		m.Run(4, func(w *Worker) {
			k := 0
			w.Steps(func(sw *Worker) bool {
				if k++; k > 200 {
					return false
				}
				if sw.sched.cur != sw {
					sw.Read(m.NVM, 64, 8, false) // wrong: must be IssueRead
				}
				sw.IssueRead(m.NVM, uint64(sw.ID()*1<<20+k*64), 8, false)
				return true
			})
		})
	}()
	if s, ok := got.(string); !ok || s == "" {
		t.Fatalf("recovered %#v, want the scheduler's misuse panic", got)
	}
}

// crashSteps is a store-heavy body over a tracked backing store, usable in
// both forms: issue is the part of a store before its charge (the store
// hook, where a CrashAtStore plan fires, then the operation) and commit
// applies the store after it.
type crashSteps struct {
	e      *persistEnv
	k      int
	base   uint64
	issued bool
}

const crashStepOps = 300

func (b *crashSteps) addr() uint64 { return b.base + uint64(b.k)*72&^7 }

func (b *crashSteps) issue(w *Worker) {
	b.e.pd.OnStore(b.e.m.NVM, b.addr(), 8)
	w.IssueWriteWord(b.e.m.NVM, b.addr())
}

func (b *crashSteps) commit() {
	b.e.b[b.addr()] = uint64(b.k + 1)
	b.k++
}

func (b *crashSteps) step(w *Worker) bool {
	if b.issued {
		b.commit()
	}
	if b.issued = b.k < crashStepOps; b.issued {
		b.issue(w)
	}
	return b.issued
}

// runCrashBody runs the store body under plan in blocking or step form and
// returns the materialized post-crash image, the crash report, and whether
// any step ran off its owner's coroutine.
func runCrashBody(t *testing.T, plan FaultPlan, steps bool) (map[uint64]uint64, CrashReport, bool) {
	t.Helper()
	e := newPersistEnv(t, testConfig(), false)
	e.m.InjectFault(plan)
	offOwner := false
	e.m.Run(8, func(w *Worker) {
		b := &crashSteps{e: e, base: uint64(w.ID()) << 16}
		if steps {
			w.Steps(func(sw *Worker) bool {
				if sw.sched.cur != sw {
					offOwner = true
				}
				return b.step(sw)
			})
			return
		}
		for b.k < crashStepOps {
			b.issue(w)
			w.Exec()
			b.commit()
		}
	})
	if !e.m.Crashed() {
		t.Fatalf("plan %+v never fired", plan)
	}
	rep, err := e.m.MaterializeCrash()
	if err != nil {
		t.Fatal(err)
	}
	return e.b, rep, offOwner
}

// TestStepsUnderArmedFaultPlan: with a crash plan armed — by store count
// or by time — no step may run off its owner's coroutine (the crash unwind
// would end the wrong worker's body), and the post-crash image must equal
// the blocking body's.
func TestStepsUnderArmedFaultPlan(t *testing.T) {
	for _, plan := range []FaultPlan{
		{CrashAtStore: 900},
		{CrashAtTime: 40 * Microsecond},
	} {
		want, wantRep, _ := runCrashBody(t, plan, false)
		got, rep, offOwner := runCrashBody(t, plan, true)
		if offOwner {
			t.Errorf("plan %+v: a step ran off its owner's coroutine with the plan armed", plan)
		}
		if rep != wantRep {
			t.Errorf("plan %+v: crash report %+v, want %+v", plan, rep, wantRep)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("plan %+v: post-crash image differs from the blocking body's", plan)
		}
	}
}
