package memsim

import (
	"fmt"
	"strings"
)

// WorkerDump is one worker's state at the moment the deadlock watchdog
// fired.
type WorkerDump struct {
	ID      int
	Now     Time
	LastOp  string // last device-visible operation before the spin streak
	LastDev string // device of that operation, if any
	Addr    uint64 // address of that operation, if any
	Spins   int64  // consecutive Spin iterations since the last real op
	Since   Time   // virtual time the spin streak began
	Done    bool   // worker body had already returned
}

// WatchdogError is the panic payload raised by Machine.Run when every
// unfinished worker of a phase is stuck in a busy-wait loop: no worker
// can ever publish the progress the others are spinning on, so the phase
// would otherwise burn host CPU forever. It carries a full per-worker
// dump so the deadlock is diagnosable from the panic alone.
type WatchdogError struct {
	Workers []WorkerDump
}

func (e *WatchdogError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "memsim: scheduler watchdog: all %d unfinished workers are spinning (deadlock)", e.unfinished())
	for _, w := range e.Workers {
		state := "spinning"
		if w.Done {
			state = "finished"
		}
		fmt.Fprintf(&b, "\n  worker %2d  t=%-12d %-8s last-op=%s", w.ID, w.Now, state, w.LastOp)
		if w.LastDev != "" {
			fmt.Fprintf(&b, " %s@0x%x", w.LastDev, w.Addr)
		}
		if !w.Done {
			fmt.Fprintf(&b, "  spins=%d since t=%d", w.Spins, w.Since)
		}
	}
	return b.String()
}

func (e *WatchdogError) unfinished() int {
	n := 0
	for _, w := range e.Workers {
		if !w.Done {
			n++
		}
	}
	return n
}

// watchdogCheck runs from a worker whose spin streak crossed the
// threshold. The phase is deadlocked iff every unfinished worker is in a
// spin streak: any worker doing real operations resets its own streak, so
// legitimate waits (barrier arrival, steal-termination detection) never
// have all streaks long simultaneously. On detection the machine is
// halted — every worker unwinds via crashSignal — and Run re-panics the
// dump on the caller's goroutine.
func (w *Worker) watchdogCheck() {
	m := w.m
	if m.wdErr != nil || m.halted {
		return
	}
	workers := []Worker{*w}
	if w.sched != nil {
		workers = w.sched.all
	}
	for i := range workers {
		if o := &workers[i]; !o.finished && o.spinStreak < watchdogSpins {
			return
		}
	}
	e := &WatchdogError{}
	for i := range workers {
		o := &workers[i]
		var dev string
		if o.lastDev != nil {
			dev = o.lastDev.name
		}
		e.Workers = append(e.Workers, WorkerDump{
			ID: o.id, Now: o.now, LastOp: o.lastOp, LastDev: dev,
			Addr: o.lastAddr, Spins: o.spinStreak, Since: o.spinSince,
			Done: o.finished,
		})
	}
	m.wdErr = e
	m.halted = true
	panic(crashSignal{})
}
