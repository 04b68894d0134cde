package memsim

import (
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// pipeOutcome is everything a single-worker phase leaves behind that host
// code can read: the log of mid-body reads, the phase's clock and every
// accounting counter and trace.
type pipeOutcome struct {
	reads   []any
	elapsed Time
	llc     CacheStats
	tiers   []DeviceStats
	traces  [][]TracePoint
}

// randomSoloProgram runs ops seeded operations in one Run(1) phase: every
// charged kind (blocking and step form), Advance and Fence, and — at a
// mean gap of readEvery operations — a drain point: Spin, SpinWait,
// PersistFence, or a read of the clock, the LLC or device counters or a
// trace window. A large gap leaves whole batches to the accountant, a
// small one drains it every few operations.
//
// The program runs as two phases on one machine. Each begins with a
// fence and ends with a write-back in flight, so a clock or flush time
// that leaks from one phase into the next shows.
func randomSoloProgram(m *Machine, seed uint64, ops, readEvery int) pipeOutcome {
	var out pipeOutcome
	rng := rand.New(rand.NewPCG(seed, 0x91e))
	tiers := m.Topology().Tiers()
	dev := func() *Device { return tiers[rng.IntN(len(tiers))].Device }
	addr := func() uint64 { return uint64(rng.IntN(1<<18)) * 8 }
	body := func(w *Worker) {
		w.Prefetch(m.DRAM, addr(), 64, false) // cheap: the previous write-back is still in flight
		w.CLWB(m.DRAM, addr())
		w.PersistFence()
		for i := 0; i < ops/2; i++ {
			switch k := rng.IntN(20); {
			case k < 5:
				w.ReadWord(dev(), addr())
			case k < 8:
				w.WriteWord(dev(), addr())
			case k < 10:
				w.Read(dev(), addr(), int64(rng.IntN(1024)), rng.IntN(2) == 0)
			case k < 12:
				w.Write(dev(), addr(), int64(rng.IntN(512)), rng.IntN(2) == 0)
			case k == 12:
				w.WriteNT(dev(), addr(), int64(rng.IntN(4096)))
			case k == 13:
				w.Prefetch(dev(), addr(), int64(rng.IntN(512)), rng.IntN(2) == 0)
			case k == 14:
				w.CLWB(dev(), addr())
			case k == 15:
				w.Advance(Time(rng.IntN(400)))
			case k == 16:
				w.Fence()
			case k == 17:
				// Step form: issue a short run of word reads.
				left := rng.IntN(6)
				d, a := dev(), addr()
				w.Steps(func(w *Worker) bool {
					if left == 0 {
						return false
					}
					left--
					w.IssueReadWord(d, a+uint64(left)*64)
					return true
				})
			}
			if rng.IntN(readEvery) == 0 {
				t := tiers[rng.IntN(len(tiers))]
				switch rng.IntN(7) {
				case 0:
					w.PersistFence()
				case 1:
					w.Spin(Time(rng.IntN(100)))
				case 2:
					until := w.Now() + Time(rng.IntN(500))
					w.SpinWait(40, func() bool { return w.Now() >= until })
				case 3:
					out.reads = append(out.reads, w.Now())
				case 4:
					out.reads = append(out.reads, m.LLC.Stats())
				case 5:
					out.reads = append(out.reads, t.Stats())
				default:
					r, wr, tot := t.Trace().Window(0, m.Now()+1<<30)
					out.reads = append(out.reads, [3]float64{r, wr, tot})
				}
			}
		}
		a := addr()
		w.WriteWord(m.NVM, a)
		w.CLWB(m.NVM, a)
	}
	out.elapsed = m.Run(1, body) + m.Run(1, body)
	out.llc = m.LLC.Stats()
	for _, t := range tiers {
		out.tiers = append(out.tiers, t.Stats())
		out.traces = append(out.traces, t.Trace().Series(0))
	}
	return out
}

// pipeTestConfig is a three-tier machine with a small LLC (so evictions
// and writebacks are frequent) and a fine trace bucket.
func pipeTestConfig(eager bool) Config {
	cfg := DefaultConfig()
	cfg.Tiers = append(cfg.Tiers, TierSpec{Name: "remote", Profile: RemoteDRAMProfile()})
	cfg.LLCBytes = 1 << 14
	cfg.TraceBucket = 5 * Microsecond
	cfg.EagerYield = eager
	return cfg
}

// TestPipelinedPhaseMatchesReference: a single-worker phase charged on the
// accountant goroutine must leave exactly what the synchronous reference
// (eager-yield, which never pipelines) leaves — every mid-body read, the
// clock, the LLC and per-tier counters and the traces — whether reads
// drain the pipeline every few operations or only at the end. Run it
// under -race at -cpu 1,2: with one core the pipeline detaches at its
// first full batch (takeCore) and the rest of the phase is inline.
func TestPipelinedPhaseMatchesReference(t *testing.T) {
	ops := 6 * batchOps * ringBatches
	if testing.Short() {
		ops = 3 * batchOps * ringBatches
	}
	for seed := uint64(1); seed <= 6; seed++ {
		for _, readEvery := range []int{3, 3000, 1 << 30} {
			ref := randomSoloProgram(NewMachine(pipeTestConfig(true)), seed, ops, readEvery)
			m := NewMachine(pipeTestConfig(false))
			got := randomSoloProgram(m, seed, ops, readEvery)
			if readEvery > 3 && m.pipe.made < 2 && runtime.GOMAXPROCS(0) > 1 {
				t.Fatalf("seed %d, reads 1/%d: the accountant never took a batch", seed, readEvery)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("seed %d, reads 1/%d: pipelined phase diverges from the reference:\n got  %+v %+v %+v\n want %+v %+v %+v",
					seed, readEvery, got.elapsed, got.llc, got.tiers, ref.elapsed, ref.llc, ref.tiers)
			}
		}
	}
}

// TestPipelinedPhaseLeavesNoGoroutine: the accountant is gone when Run
// returns, and when it panics out of a body that had batches in flight.
// Whether the accountant started is read from the pipeline itself (the
// body is its producer): a goroutine count taken mid-body would miss the
// start whenever a goroutine left over from an earlier test exited in the
// same window. The baseline count is taken once such leftovers are gone.
func TestPipelinedPhaseLeavesNoGoroutine(t *testing.T) {
	type boom struct{}
	settled := func(before int) bool {
		for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
			time.Sleep(time.Millisecond)
		}
		return runtime.NumGoroutine() <= before
	}
	// steady returns the goroutine count once it holds still for a few
	// milliseconds (or after about a second).
	steady := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 200; i++ {
			time.Sleep(5 * time.Millisecond)
			k := runtime.NumGoroutine()
			if k == n {
				return n
			}
			n = k
		}
		return n
	}
	for _, panics := range []bool{false, true} {
		if runtime.GOMAXPROCS(0) < 2 {
			t.Skip("the accountant needs an idle core")
		}
		m := testMachine()
		before := steady()
		started := false
		var got any
		func() {
			defer func() { got = recover() }()
			m.Run(1, func(w *Worker) {
				for i := 0; i < 3*batchOps; i++ {
					w.ReadWord(m.NVM, uint64(i)*64)
				}
				started = m.pipe.running
				if panics {
					panic(boom{})
				}
			})
		}()
		if !started {
			t.Fatalf("panics=%v: the accountant never started", panics)
		}
		if panics && got != (boom{}) {
			t.Fatalf("recovered %#v, want boom{}", got)
		}
		if !panics && got != nil {
			t.Fatalf("unexpected panic %v", got)
		}
		if !settled(before) {
			t.Errorf("panics=%v: %d goroutines after Run, %d before", panics, runtime.NumGoroutine(), before)
		}
		if st := m.LLC.Stats(); st.Hits+st.Misses != 3*batchOps {
			t.Errorf("panics=%v: %d LLC probes charged, want %d", panics, st.Hits+st.Misses, 3*batchOps)
		}
	}
}

// TestAccountantPanicSurfacesFromRun: a panic raised while the accountant
// replays a batch (here, an operation on a nil device) surfaces from Run on
// the caller's goroutine, as it would have from the inline charge.
func TestAccountantPanicSurfacesFromRun(t *testing.T) {
	m := testMachine()
	before := runtime.NumGoroutine()
	var got any
	func() {
		defer func() { got = recover() }()
		m.Run(1, func(w *Worker) {
			w.ReadWord(nil, 0)
			for i := 0; i < 3*batchOps; i++ {
				w.ReadWord(m.NVM, uint64(i)*64)
			}
		})
	}()
	if got == nil {
		t.Fatal("Run returned normally after the accountant panicked")
	}
	if runtime.NumGoroutine() > before {
		time.Sleep(10 * time.Millisecond)
		if runtime.NumGoroutine() > before {
			t.Errorf("%d goroutines after Run, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// BenchmarkSoloPhase times keyed-like mutator traffic in one Run(1) phase
// — per op, a zipfian row draw, CPU time, a word read of the row's index
// slot and a 512 B streaming read of the row — pipelined against its
// synchronous eager-yield twin. Run at -cpu 1,2: with one core the
// accountant shares the body's.
func BenchmarkSoloPhase(b *testing.B) {
	for _, c := range []struct {
		name  string
		eager bool
	}{{"pipelined", false}, {"sync", true}} {
		b.Run(c.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.EagerYield = c.eager
			m := NewMachine(cfg)
			rows := rand.NewZipf(rand.New(rand.NewPCG(1, 2)), 1.01, 1, 1<<16-1)
			b.ResetTimer()
			m.Run(1, func(w *Worker) {
				for i := 0; i < b.N; i++ {
					row := rows.Uint64()
					w.Advance(200)
					w.ReadWord(m.DRAM, row*8)
					w.Read(m.NVM, 1<<24+row*512, 512, true)
				}
			})
		})
	}
}

// TestMidPhaseSetupDetachesPipeline: installing a fault plan or a
// persistence domain inside a pipelined phase hands the rest of the phase
// back to inline charging (their hooks read the clock and device state per
// operation), and the phase still matches its eager twin.
func TestMidPhaseSetupDetachesPipeline(t *testing.T) {
	installs := map[string]func(m *Machine, w *Worker){
		"fault-plan":     func(m *Machine, w *Worker) { m.InjectFault(FaultPlan{CrashAtTime: maxTime}) },
		"persist-domain": func(m *Machine, w *Worker) { m.EnablePersist(m.NVM, false) },
	}
	for name, install := range installs {
		run := func(eager bool) (Time, CacheStats, DeviceStats) {
			cfg := testConfig()
			cfg.EagerYield = eager
			m := NewMachine(cfg)
			el := m.Run(1, func(w *Worker) {
				for i := 0; i < 6*batchOps; i++ {
					if i == 3*batchOps {
						install(m, w)
						if w.pipe != nil {
							t.Errorf("%s: pipeline still attached after the install", name)
						}
					}
					w.WriteWord(m.NVM, uint64(i%4096)*64)
				}
			})
			return el, m.LLC.Stats(), m.NVM.Stats()
		}
		gotT, gotC, gotD := run(false)
		wantT, wantC, wantD := run(true)
		if gotT != wantT || gotC != wantC || gotD != wantD {
			t.Errorf("%s: pipelined phase %d %+v %+v, eager %d %+v %+v", name, gotT, gotC, gotD, wantT, wantC, wantD)
		}
	}
}
