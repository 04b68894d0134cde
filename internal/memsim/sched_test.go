package memsim

import (
	"reflect"
	"sync"
	"testing"
)

// schedWorkload is a device-heavy phase body exercising every yield point:
// cached reads/writes, streaming stores, prefetches and busy-wait spins,
// with inter-worker contention on both devices and on shared LLC sets.
// With a non-nil log it also runs host code between the charged
// operations: a CPU-only advance, then an append of the worker's id to the
// log the whole phase shares. Host code runs at the worker's settled
// position in global operation order, so the log's order is part of the
// scheduling contract.
func schedWorkload(m *Machine, log *[]uint8) func(*Worker) {
	return func(w *Worker) {
		base := uint64(w.ID()) << 22
		for i := 0; i < 120; i++ {
			w.Read(m.NVM, base+uint64(i*4096), 256, false)
			if log != nil {
				w.Advance(Time(i%5) + 1)
			}
			w.Write(m.NVM, base+uint64(i*4096), 16, false)
			if log != nil {
				*log = append(*log, uint8(w.ID()))
			}
			if i%4 == 0 {
				w.Prefetch(m.NVM, base+uint64((i+8)*4096), 128, false)
			}
			if i%7 == 0 {
				w.Read(m.DRAM, uint64(i*64), 64, i%2 == 0) // shared lines
			}
			if i%9 == 0 {
				w.WriteNT(m.NVM, base+1<<21+uint64(i)*256, 256)
			}
			if i%13 == 0 {
				w.Spin(5)
			}
			w.Advance(Time(i % 3))
		}
	}
}

type schedSnapshot struct {
	elapsed Time
	now     Time
	nvm     DeviceStats
	dram    DeviceStats
	llc     CacheStats
}

// runSchedWorkload runs one schedWorkload phase on a fresh machine and
// snapshots every virtual outcome.
func runSchedWorkload(cfg Config, workers int, eager bool, log *[]uint8) schedSnapshot {
	cfg.EagerYield = eager
	m := NewMachine(cfg)
	el := m.Run(workers, schedWorkload(m, log))
	return schedSnapshot{elapsed: el, now: m.Now(), nvm: m.NVM.Stats(), dram: m.DRAM.Stats(), llc: m.LLC.Stats()}
}

// TestGoldenSchedulerDeterminism is the scheduler's golden test: the
// event-horizon scheduler must produce bit-identical virtual times, device
// counters and cache counters to the eager-yield reference, at every
// worker count, and both must be self-deterministic across repeats.
func TestGoldenSchedulerDeterminism(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 16, 56} {
		horizon := runSchedWorkload(testConfig(), workers, false, nil)
		eager := runSchedWorkload(testConfig(), workers, true, nil)
		if horizon != eager {
			t.Errorf("workers=%d: horizon %+v != eager %+v", workers, horizon, eager)
		}
		if again := runSchedWorkload(testConfig(), workers, false, nil); again != horizon {
			t.Errorf("workers=%d: horizon scheduler not deterministic: %+v vs %+v", workers, horizon, again)
		}
	}
}

// TestHorizonSkipsHandoffs sanity-checks that the lookahead actually
// short-circuits: a worker that stays strictly earliest must keep running
// rather than park on the dispatcher (a livelock here would time the test
// out).
func TestHorizonSkipsHandoffs(t *testing.T) {
	m := testMachine()
	el := m.Run(2, func(w *Worker) {
		if w.ID() == 0 {
			for i := 0; i < 1000; i++ {
				w.Read(m.NVM, uint64(i)*64, 64, true)
			}
		} else {
			w.Advance(10 * Second) // parks far in the future
			w.Spin(1)
		}
	})
	if el < 10*Second {
		t.Fatalf("elapsed %d should cover the parked worker", el)
	}
}

// TestConcurrentMachinesAreIndependent runs the same 16-worker phase on
// four machines from four host goroutines at once — the shape internal/par
// gives the figure suite — and expects every machine to reproduce the
// single-goroutine result. Each Run dispatches its coroutines on its
// caller's goroutine, so machines share nothing; -race checks that.
func TestConcurrentMachinesAreIndependent(t *testing.T) {
	want := runSchedWorkload(testConfig(), 16, false, nil)
	got := make([]schedSnapshot, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = runSchedWorkload(testConfig(), 16, false, nil)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("machine %d: %+v, want %+v", i, g, want)
		}
	}
}

// TestGoldenHostEffectOrder is the golden test for host code between
// charged operations: on a small 4-way LLC, with CPU advances and
// shared-state mutations interleaved with the device traffic, the default
// scheduler must reproduce the eager-yield reference bit-for-bit — virtual
// times, device and cache counters — and every host effect must land
// exactly once, in the reference's order.
func TestGoldenHostEffectOrder(t *testing.T) {
	cfg := testConfig()
	cfg.LLCAssoc = 4
	for _, workers := range []int{1, 2, 8, 16} {
		var wantLog, log []uint8
		eager := runSchedWorkload(cfg, workers, true, &wantLog)
		if len(wantLog) != workers*120 {
			t.Fatalf("workers=%d: eager reference ran %d host effects, want %d", workers, len(wantLog), workers*120)
		}
		got := runSchedWorkload(cfg, workers, false, &log)
		if got != eager {
			t.Errorf("workers=%d: diverged from eager reference:\n got %+v\nwant %+v", workers, got, eager)
		}
		if !reflect.DeepEqual(log, wantLog) {
			t.Errorf("workers=%d: host effects landed in a different order than the eager reference", workers)
		}
	}
}
