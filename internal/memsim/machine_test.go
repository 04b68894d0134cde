package memsim

import (
	"runtime"
	"testing"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.LLCBytes = 1 << 16
	return cfg
}

func testMachine() *Machine { return NewMachine(testConfig()) }

func TestRunSerialAdvancesClock(t *testing.T) {
	m := testMachine()
	el := m.Run(1, func(w *Worker) {
		w.Advance(100)
		w.Read(m.NVM, 0x1000, 64, false)
	})
	if el <= 100 {
		t.Fatalf("elapsed = %d, want > 100", el)
	}
	if m.Now() != el {
		t.Fatalf("machine clock %d != elapsed %d", m.Now(), el)
	}
}

func TestRunParallelWaitsForAll(t *testing.T) {
	m := testMachine()
	el := m.Run(4, func(w *Worker) {
		w.Advance(Time(w.ID()+1) * 1000)
		w.Spin(1) // force at least one yield
	})
	if el < 4000 {
		t.Fatalf("elapsed %d should cover the slowest worker", el)
	}
}

func TestRunPhasesAccumulate(t *testing.T) {
	m := testMachine()
	m.Run(1, func(w *Worker) { w.Advance(500) })
	m.Run(2, func(w *Worker) { w.Advance(300); w.Spin(1) })
	if m.Now() < 800 {
		t.Fatalf("clock %d should accumulate across phases", m.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Time, DeviceStats) {
		m := testMachine()
		m.Run(8, func(w *Worker) {
			base := uint64(w.ID()) * 1 << 20
			for i := 0; i < 50; i++ {
				w.Read(m.NVM, base+uint64(i*4096), 256, false)
				w.Write(m.NVM, base+uint64(i*4096), 8, false)
				if i%10 == 0 {
					w.Spin(5)
				}
			}
		})
		return m.Now(), m.NVM.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("simulation is not deterministic: %d/%+v vs %d/%+v", t1, s1, t2, s2)
	}
}

func TestSharedStateInterleavingIsSafe(t *testing.T) {
	// Workers increment a shared counter between yields; the cooperative
	// scheduler guarantees no host-level data race (run with -race).
	m := testMachine()
	counter := 0
	const perWorker = 200
	m.Run(8, func(w *Worker) {
		for i := 0; i < perWorker; i++ {
			counter++
			w.Spin(3)
		}
	})
	if counter != 8*perWorker {
		t.Fatalf("counter = %d, want %d", counter, 8*perWorker)
	}
}

// TestWorkerPanicPropagatesFromRun: a panic in one worker body of a
// parallel phase must surface from Run on the caller's goroutine with its
// original value — where a test or caller can recover it — exactly as it
// does in a single-worker phase, and must leave no coroutine behind.
func TestWorkerPanicPropagatesFromRun(t *testing.T) {
	type boom struct{ id int }
	for _, n := range []int{1, 4} {
		m := testMachine()
		before := runtime.NumGoroutine()
		unwound := 0
		var got any
		func() {
			defer func() { got = recover() }()
			m.Run(n, func(w *Worker) {
				defer func() { unwound++ }()
				for i := 0; i < 100; i++ {
					w.Read(m.NVM, uint64(w.ID()*4096+i*64), 8, false)
					if w.ID() == n/2 && i == 50 {
						panic(boom{w.ID()})
					}
				}
			})
			t.Errorf("n=%d: Run returned after a worker panic", n)
		}()
		if got != (boom{n / 2}) {
			t.Errorf("n=%d: recovered %#v, want %#v", n, got, boom{n / 2})
		}
		if unwound != n {
			t.Errorf("n=%d: %d worker bodies unwound, want %d", n, unwound, n)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("n=%d: %d goroutines after the panic, %d before", n, after, before)
		}
	}
}

// TestRunLeavesNoGoroutines: every worker coroutine is gone by the time Run
// returns or panics — after a normal phase, after a crashSignal unwind
// (an injected power failure) and after a watchdog trip. A leaked phase
// would leave its 8 coroutines parked; the comparison is one-sided because
// an earlier test's helper goroutine may still be exiting when before is
// sampled.
func TestRunLeavesNoGoroutines(t *testing.T) {
	reads := func(m *Machine, n int) func(*Worker) {
		return func(w *Worker) {
			for i := 0; n < 0 || i < n; i++ {
				w.Read(m.DRAM, uint64(w.ID()*4096+i*8), 8, false)
			}
		}
	}
	cases := []struct {
		name string
		run  func()
	}{
		{"normal", func() {
			m := testMachine()
			m.Run(8, reads(m, 200))
		}},
		{"crash", func() {
			m := testMachine()
			m.InjectFault(FaultPlan{CrashAtTime: 5 * Microsecond})
			m.Run(8, reads(m, -1))
			if !m.Crashed() {
				t.Error("crash: time trigger did not fire")
			}
		}},
		{"watchdog", func() {
			m := NewMachine(DefaultConfig())
			defer func() {
				if _, ok := recover().(*WatchdogError); !ok {
					t.Error("watchdog: deadlocked phase did not panic with *WatchdogError")
				}
			}()
			m.Run(8, func(w *Worker) {
				for {
					w.Spin(60)
				}
			})
		}},
	}
	for _, c := range cases {
		before := runtime.NumGoroutine()
		c.run()
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: %d goroutines after Run, %d before", c.name, after, before)
		}
	}
}

func TestMarks(t *testing.T) {
	m := testMachine()
	m.Mark("gc-start")
	m.Run(1, func(w *Worker) { w.Advance(100) })
	m.Mark("gc-end")
	marks := m.Marks()
	if len(marks) != 2 || marks[0].Label != "gc-start" || marks[1].T < 100 {
		t.Fatalf("marks = %+v", marks)
	}
}

func TestPrefetchHidesLatency(t *testing.T) {
	// Demand-read cost after prefetch + compute gap should be lower than
	// a cold read.
	coldCost := func() Time {
		m := testMachine()
		var start, end Time
		m.Run(1, func(w *Worker) {
			start = w.Now()
			w.Read(m.NVM, 0x9000, 64, false)
			end = w.Now()
		})
		return end - start
	}()
	warmCost := func() Time {
		m := testMachine()
		var start, end Time
		m.Run(1, func(w *Worker) {
			w.Prefetch(m.NVM, 0x9000, 64, false)
			w.Advance(2000) // compute while the line is in flight
			start = w.Now()
			w.Read(m.NVM, 0x9000, 64, false)
			end = w.Now()
		})
		return end - start
	}()
	if warmCost >= coldCost {
		t.Fatalf("prefetched read (%d) should be cheaper than cold read (%d)", warmCost, coldCost)
	}
}

func TestPrefetchTooLateStillWaits(t *testing.T) {
	// Accessing immediately after the prefetch pays most of the latency.
	m := testMachine()
	var cost Time
	m.Run(1, func(w *Worker) {
		w.Prefetch(m.NVM, 0x9000, 64, false)
		s := w.Now()
		w.Read(m.NVM, 0x9000, 64, false)
		cost = w.Now() - s
	})
	if cost < 100 {
		t.Fatalf("immediate access after prefetch should still wait, cost=%d", cost)
	}
}

func TestPrefetchDoesNotPolluteCache(t *testing.T) {
	// Prefetched lines stage in the dedicated buffer: issuing many
	// prefetches must not evict demand-fetched lines.
	cfg := DefaultConfig()
	cfg.LLCBytes = 1 << 12 // 64 lines
	m := NewMachine(cfg)
	m.Run(1, func(w *Worker) {
		w.Read(m.NVM, 0x0, 64, false) // demand line
		for i := 0; i < 1000; i++ {
			w.Prefetch(m.NVM, 1<<20+uint64(i)*64, 64, false)
		}
		before := m.LLC.Stats().Hits
		w.Read(m.NVM, 0x0, 64, false)
		if m.LLC.Stats().Hits != before+1 {
			panic("demand line was evicted by prefetches")
		}
	})
}

func TestPrefetchPromotion(t *testing.T) {
	m := testMachine()
	m.Run(1, func(w *Worker) {
		w.Prefetch(m.NVM, 0x7000, 64, false)
		w.Advance(5000)
		w.Read(m.NVM, 0x7000, 64, false)
	})
	if m.LLC.Stats().PrefetchPromotions != 1 {
		t.Fatalf("promotions = %d", m.LLC.Stats().PrefetchPromotions)
	}
	// Second access is a plain cache hit (line promoted into the LLC).
	m.Run(1, func(w *Worker) {
		before := m.LLC.Stats().Hits
		w.Read(m.NVM, 0x7000, 64, false)
		if m.LLC.Stats().Hits != before+1 {
			t.Error("promoted line should hit")
		}
	})
}

func TestWriteNTBypassesCache(t *testing.T) {
	m := testMachine()
	m.Run(1, func(w *Worker) {
		w.WriteNT(m.NVM, 0x4000, 256)
	})
	if m.LLC.Stats().Hits != 0 {
		t.Fatal("NT write must not populate the cache")
	}
	s := m.NVM.Stats()
	if s.WriteBytes != 256 || s.ReadBytes != 0 {
		t.Fatalf("NT write should move 256B of pure writes, got %+v", s)
	}
}

func TestCachedWriteCausesRFO(t *testing.T) {
	m := testMachine()
	m.Run(1, func(w *Worker) {
		w.Write(m.NVM, 0x4000, 64, false)
	})
	if m.NVM.Stats().ReadBytes == 0 {
		t.Fatal("cached write miss should read-for-ownership")
	}
}

func TestTraceRecordsBandwidth(t *testing.T) {
	m := testMachine()
	m.Run(1, func(w *Worker) {
		for i := 0; i < 100; i++ {
			w.Read(m.NVM, uint64(i)*4096, 4096, true)
		}
	})
	pts := m.NVM.Trace().Series(0)
	if len(pts) == 0 {
		t.Fatal("trace should have points")
	}
	var total float64
	for _, p := range pts {
		total += p.Read
		if p.Write > p.Total || p.Read > p.Total {
			t.Fatalf("inconsistent point %+v", p)
		}
	}
	if total == 0 {
		t.Fatal("trace recorded no read bandwidth")
	}
	r, wr, tot := m.NVM.Trace().Window(0, m.Now())
	if r <= 0 || wr < 0 || tot < r {
		t.Fatalf("window stats: %g %g %g", r, wr, tot)
	}
}

func TestTraceReset(t *testing.T) {
	tr := &Trace{bucket: 1000}
	tr.add(500, 64, false)
	tr.Reset()
	if len(tr.Series(0)) != 0 {
		t.Fatal("reset should clear samples")
	}
}

func TestZeroSizeOpsAreFree(t *testing.T) {
	m := testMachine()
	m.Run(1, func(w *Worker) {
		s := w.Now()
		w.Read(m.NVM, 0, 0, true)
		w.Write(m.NVM, 0, 0, true)
		w.WriteNT(m.NVM, 0, 0)
		w.Prefetch(m.NVM, 0, 0, true)
		if w.Now() != s {
			// zero-size ops must not advance time
			panic("zero-size op advanced time")
		}
	})
}
