package memsim

import (
	"fmt"
	"strings"
	"testing"
)

// TestWatchdogDetectsDeadlock provokes the classic simulation deadlock:
// every worker busy-waits on progress no one will ever make. The watchdog
// must unwind the phase and panic with a per-worker state dump instead of
// burning host CPU forever.
func TestWatchdogDetectsDeadlock(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TraceBucket = 0
	m := NewMachine(cfg)

	defer func() {
		we, ok := recover().(*WatchdogError)
		if !ok {
			t.Fatal("deadlocked phase did not panic with *WatchdogError")
		}
		if len(we.Workers) != 3 {
			t.Fatalf("dump has %d workers, want 3", len(we.Workers))
		}
		for _, wd := range we.Workers {
			if wd.Done {
				t.Errorf("worker %d reported finished in a full deadlock", wd.ID)
			}
			if wd.Spins < watchdogSpins {
				t.Errorf("worker %d dumped with streak %d < threshold", wd.ID, wd.Spins)
			}
			if wd.LastOp != "read" {
				t.Errorf("worker %d last op %q, want read", wd.ID, wd.LastOp)
			}
		}
		msg := we.Error()
		for _, want := range []string{"watchdog", "deadlock", "worker  2", "last-op=read"} {
			if !strings.Contains(msg, want) {
				t.Errorf("dump message missing %q:\n%s", want, msg)
			}
		}
	}()

	m.Run(3, func(w *Worker) {
		// One real op so the dump has a last-op, then an unbounded wait on
		// a flag no worker ever sets.
		w.Read(m.DRAM, uint64(w.ID())*64, 8, false)
		for {
			w.Spin(60)
		}
	})
	t.Fatal("deadlocked Run returned")
}

// TestWatchdogDumpNamesLastAccess checks that a dump names each worker's
// last device-visible operation by tier and address: the worker keeps the
// device it touched, and the dump resolves its name.
func TestWatchdogDumpNamesLastAccess(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TraceBucket = 0
	m := NewMachine(cfg)
	addr := func(id int) uint64 { return 1<<32 + uint64(id)*4096 + 8 }

	defer func() {
		we, ok := recover().(*WatchdogError)
		if !ok {
			t.Fatal("deadlocked phase did not panic with *WatchdogError")
		}
		msg := we.Error()
		for _, wd := range we.Workers {
			if wd.LastDev != "nvm" || wd.Addr != addr(wd.ID) {
				t.Errorf("worker %d dumped last access %s@%#x, want nvm@%#x", wd.ID, wd.LastDev, wd.Addr, addr(wd.ID))
			}
			if want := fmt.Sprintf("last-op=write nvm@0x%x", addr(wd.ID)); !strings.Contains(msg, want) {
				t.Errorf("dump message missing %q:\n%s", want, msg)
			}
		}
	}()

	m.Run(2, func(w *Worker) {
		w.Read(m.DRAM, 64, 8, false)
		w.WriteWord(m.NVM, addr(w.ID()))
		for {
			w.Spin(60)
		}
	})
	t.Fatal("deadlocked Run returned")
}

// TestWatchdogSparesLegitimateWaits runs a phase where one worker spins on
// a flag another worker is actively working toward: the working worker's
// streak stays zero, so the watchdog must not fire. The worker keeps
// working until the waiter's streak has passed the threshold, so the
// watchdog does inspect the phase.
func TestWatchdogSparesLegitimateWaits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TraceBucket = 0
	m := NewMachine(cfg)

	var done bool
	var spins int64
	m.Run(2, func(w *Worker) {
		if w.ID() == 0 {
			for i := 0; spins <= watchdogSpins; i++ {
				w.Read(m.DRAM, uint64(i%512)*8, 8, false)
			}
			done = true
			return
		}
		for !done {
			spins++
			w.Spin(60)
		}
	})
	if !done {
		t.Fatal("phase did not complete")
	}
}

// TestWatchdogSingleWorker: a single-worker phase stuck in a busy-wait is
// just as dead; the n<=1 fast path must trip the watchdog too.
func TestWatchdogSingleWorker(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TraceBucket = 0
	m := NewMachine(cfg)

	defer func() {
		we, ok := recover().(*WatchdogError)
		if !ok {
			t.Fatal("single-worker deadlock did not panic with *WatchdogError")
		}
		if len(we.Workers) != 1 {
			t.Fatalf("dump has %d workers, want 1", len(we.Workers))
		}
	}()
	m.Run(1, func(w *Worker) {
		for {
			w.Spin(60)
		}
	})
	t.Fatal("deadlocked Run returned")
}
