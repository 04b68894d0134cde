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

// wearSnapshot captures everything the fault layer decides during a run:
// the final clock, the full per-device fault counters (DegradedAt pins
// the virtual time the degraded-mode trip fired), and the poisoned lines
// in poisoning order (victim identity and discovery order).
type wearSnapshot struct {
	now   Time
	stats FaultStats
	ues   []uint64
}

func runWearWorkload(workers int, eager bool) wearSnapshot {
	cfg := DefaultConfig()
	cfg.LLCBytes = 1 << 16
	cfg.LLCAssoc = 4
	cfg.EagerYield = eager
	cfg.Tiers = WithFault(cfg.Tiers, FaultModel{Seed: 42, WearThresholdMean: 6, WearThresholdSpread: 2, DegradeUETrip: 4})
	m := NewMachine(cfg)
	m.Run(workers, func(w *Worker) {
		base := uint64(w.ID()) << 18
		for i := 0; i < 40; i++ {
			for j := 0; j < 8; j++ {
				// Hammer a small set of lines so seeded wear-out fires
				// mid-run.
				w.Write(m.NVM, base+uint64((i%10)*256+j*64), 16, false)
				w.Advance(3)
			}
		}
	})
	return wearSnapshot{now: m.Now(), stats: m.NVM.FaultStats(), ues: m.NVM.DrainNewUEs()}
}

// TestFaultDeterminismUnderBatching proves the fault layer is invariant
// under the scheduling mode: with a seeded wear model, every wear-out
// fires on the same victim line, in the same order, with the tier's
// degraded-mode trip at the same virtual time, whether each store's
// accounting runs on its owner at issue (the eager reference) or is
// delegated to a peer past the event horizon (the default). The name
// dates from the batching layer this test outlived.
func TestFaultDeterminismUnderBatching(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		ref := runWearWorkload(workers, true)
		if ref.stats.HardErrors == 0 {
			t.Fatalf("workers=%d: wear model never fired — the test exercises nothing", workers)
		}
		if !ref.stats.Degraded {
			t.Fatalf("workers=%d: degraded-mode trip never fired — DegradedAt is unpinned", workers)
		}
		got := runWearWorkload(workers, false)
		if got.now != ref.now || got.stats != ref.stats {
			t.Errorf("workers=%d: fault outcome diverged:\n got now=%d stats=%+v\nwant now=%d stats=%+v",
				workers, got.now, got.stats, ref.now, ref.stats)
		}
		if !reflect.DeepEqual(got.ues, ref.ues) {
			t.Errorf("workers=%d: victim lines diverged:\n got %x\nwant %x", workers, got.ues, ref.ues)
		}
	}
}
