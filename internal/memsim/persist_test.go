package memsim

import (
	"math"
	"slices"
	"testing"
)

// persistEnv is a tiny tracked backing store: a sparse word map standing
// in for the heap's word array.
type persistEnv struct {
	m  *Machine
	pd *PersistDomain
	b  map[uint64]uint64
}

func newPersistEnv(t *testing.T, cfg Config, eADR bool) *persistEnv {
	t.Helper()
	m := NewMachine(cfg)
	pd := m.EnablePersist(m.NVM, eADR)
	e := &persistEnv{m: m, pd: pd, b: make(map[uint64]uint64)}
	pd.SetBacking(
		func(a uint64) uint64 { return e.b[a] },
		func(a uint64, v uint64) { e.b[a] = v },
		0, 1<<30,
	)
	return e
}

// store models a heap cached store: hook first (the crash strikes before
// the triggering store applies), then the charged write, then the
// backing mutation.
func (e *persistEnv) store(w *Worker, addr uint64, v uint64) {
	e.pd.OnStore(e.m.NVM, addr, 8)
	w.Write(e.m.NVM, addr, 8, false)
	e.b[addr] = v
}

// tinyCacheConfig returns a machine with a 2-line direct-mapped LLC so
// tests can force dirty evictions at will.
func tinyCacheConfig() Config {
	cfg := DefaultConfig()
	cfg.TraceBucket = 0
	cfg.LLCBytes = 2 * LineSize
	cfg.LLCAssoc = 1
	return cfg
}

func TestCrashRevertsUnpersistedLines(t *testing.T) {
	e := newPersistEnv(t, tinyCacheConfig(), false)
	// Lines 0 and 128 share LLC set 0: the second store evicts the first,
	// persisting it; the third store is the crash trigger.
	e.m.InjectFault(FaultPlan{CrashAtStore: 3})
	e.m.Run(1, func(w *Worker) {
		e.store(w, 0, 11)
		e.store(w, 128, 22)
		e.store(w, 64, 33) // never applies
		t.Error("store past the crash trigger executed")
	})
	if !e.m.Crashed() {
		t.Fatal("machine did not crash")
	}
	rep, err := e.m.MaterializeCrash()
	if err != nil {
		t.Fatal(err)
	}
	if got := e.b[0]; got != 11 {
		t.Errorf("evicted line reverted: got %d, want 11", got)
	}
	if got := e.b[128]; got != 0 {
		t.Errorf("unpersisted line survived: got %d, want 0", got)
	}
	if got := e.b[64]; got != 0 {
		t.Errorf("post-crash store applied: got %d", got)
	}
	if rep.RevertedLines != 1 {
		t.Errorf("RevertedLines = %d, want 1", rep.RevertedLines)
	}
	if s := e.pd.Stats(); s.EvictPersists != 1 {
		t.Errorf("EvictPersists = %d, want 1", s.EvictPersists)
	}
}

func TestCLWBNeedsFenceToPersist(t *testing.T) {
	for _, fenced := range []bool{false, true} {
		e := newPersistEnv(t, tinyCacheConfig(), false)
		e.m.InjectFault(FaultPlan{CrashAtTime: 1 << 40})
		e.m.Run(1, func(w *Worker) {
			e.store(w, 0, 7)
			w.CLWB(e.m.NVM, 0)
			if fenced {
				w.PersistFence()
			}
			w.Spin(1 << 41)
			w.Spin(1) // trip the time trigger
		})
		if _, err := e.m.MaterializeCrash(); err != nil {
			t.Fatal(err)
		}
		want := uint64(0)
		if fenced {
			want = 7
		}
		if got := e.b[0]; got != want {
			t.Errorf("fenced=%v: got %d, want %d", fenced, got, want)
		}
	}
}

func TestKeepPendingTreatsCLWBAsPersisted(t *testing.T) {
	e := newPersistEnv(t, tinyCacheConfig(), false)
	e.m.InjectFault(FaultPlan{CrashAtTime: 1 << 40, KeepPending: true})
	e.m.Run(1, func(w *Worker) {
		e.store(w, 0, 7)
		w.CLWB(e.m.NVM, 0) // flushed, never fenced
		w.Spin(1 << 41)
		w.Spin(1) // trip the time trigger
	})
	rep, err := e.m.MaterializeCrash()
	if err != nil {
		t.Fatal(err)
	}
	if got := e.b[0]; got != 7 {
		t.Errorf("pending line reverted under KeepPending: got %d", got)
	}
	if rep.KeptLines != 1 {
		t.Errorf("KeptLines = %d, want 1", rep.KeptLines)
	}
}

func TestNTStorePersistsImmediately(t *testing.T) {
	e := newPersistEnv(t, tinyCacheConfig(), false)
	e.m.InjectFault(FaultPlan{CrashAtTime: 1 << 40})
	e.m.Run(1, func(w *Worker) {
		e.pd.OnStore(e.m.NVM, 256, 8)
		w.WriteNT(e.m.NVM, 256, LineSize)
		e.b[256] = 42
		e.pd.OnNT(e.m.NVM, 256, LineSize)
		w.Spin(1 << 41)
		w.Spin(1) // trip the time trigger
	})
	if _, err := e.m.MaterializeCrash(); err != nil {
		t.Fatal(err)
	}
	if got := e.b[256]; got != 42 {
		t.Errorf("NT store reverted: got %d, want 42", got)
	}
}

func TestEADRPersistsEveryStore(t *testing.T) {
	e := newPersistEnv(t, tinyCacheConfig(), true)
	e.m.InjectFault(FaultPlan{CrashAtStore: 4})
	e.m.Run(1, func(w *Worker) {
		e.store(w, 0, 1)
		e.store(w, 64, 2)
		e.store(w, 128, 3)
		e.store(w, 192, 99) // trigger: never applies
	})
	rep, err := e.m.MaterializeCrash()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RevertedLines != 0 {
		t.Errorf("eADR reverted %d lines", rep.RevertedLines)
	}
	for addr, want := range map[uint64]uint64{0: 1, 64: 2, 128: 3, 192: 0} {
		if got := e.b[addr]; got != want {
			t.Errorf("b[%d] = %d, want %d", addr, got, want)
		}
	}
}

func TestTornXPLineAtCrashFrontier(t *testing.T) {
	e := newPersistEnv(t, tinyCacheConfig(), false)
	// Fill one 256 B XPLine line-by-line (lines 512, 576, 640, 704), all
	// eight words per line, then crash. The frontier is line 704: lines
	// before it persist, 704 keeps its first four words, nothing follows.
	e.m.InjectFault(FaultPlan{CrashAtTime: 1 << 40, TornLine: true})
	e.m.Run(1, func(w *Worker) {
		for line := uint64(512); line < 768; line += LineSize {
			for off := uint64(0); off < LineSize; off += 8 {
				e.store(w, line+off, 100+line+off)
			}
		}
		w.Spin(1 << 41)
		w.Spin(1) // trip the time trigger
	})
	rep, err := e.m.MaterializeCrash()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TornLine || rep.TornLineAddr != 704 {
		t.Fatalf("torn line = (%v, %d), want (true, 704)", rep.TornLine, rep.TornLineAddr)
	}
	for line := uint64(512); line < 704; line += LineSize {
		for off := uint64(0); off < LineSize; off += 8 {
			if got := e.b[line+off]; got != 100+line+off {
				t.Fatalf("pre-frontier word %d reverted: got %d", line+off, got)
			}
		}
	}
	for off := uint64(0); off < LineSize; off += 8 {
		want := uint64(0)
		if off < 32 {
			want = 100 + 704 + off
		}
		if got := e.b[704+off]; got != want {
			t.Errorf("torn line word %d = %d, want %d", off, got, want)
		}
	}
}

func TestCrashAtStoreRangeFilter(t *testing.T) {
	e := newPersistEnv(t, tinyCacheConfig(), false)
	// Only stores into [4096, 8192) count; the second such store triggers.
	e.m.InjectFault(FaultPlan{CrashAtStore: 2, StoreLo: 4096, StoreHi: 8192})
	applied := 0
	e.m.Run(1, func(w *Worker) {
		e.store(w, 0, 1) // outside the window: not counted
		applied++
		e.store(w, 4096, 2) // first counted store
		applied++
		e.store(w, 64, 3) // outside: not counted
		applied++
		e.store(w, 4160, 4) // second counted store: crash
		applied++
	})
	if applied != 3 {
		t.Fatalf("applied %d stores before crash, want 3", applied)
	}
	if !e.m.Crashed() {
		t.Fatal("range-filtered store trigger did not fire")
	}
}

func TestCrashAtTimeUnwindsParallelPhase(t *testing.T) {
	e := newPersistEnv(t, tinyCacheConfig(), false)
	e.m.InjectFault(FaultPlan{CrashAtTime: 5 * Microsecond})
	e.m.Run(4, func(w *Worker) {
		for i := 0; ; i++ {
			w.Read(e.m.DRAM, uint64(w.ID()*4096+i*8), 8, false)
		}
	})
	if !e.m.Crashed() {
		t.Fatal("time trigger did not fire")
	}
	if ct := e.m.CrashTime(); ct < 5*Microsecond {
		t.Errorf("crash time %d before trigger point", ct)
	}
}

// TestPersistHooksDoNotChangeTiming asserts the cornerstone golden
// property: enabling the persistence domain (without any fault firing)
// leaves every virtual-time result bit-identical.
func TestPersistHooksDoNotChangeTiming(t *testing.T) {
	run := func(enable bool) Time {
		cfg := tinyCacheConfig()
		m := NewMachine(cfg)
		var e *persistEnv
		if enable {
			pd := m.EnablePersist(m.NVM, false)
			e = &persistEnv{m: m, pd: pd, b: make(map[uint64]uint64)}
			pd.SetBacking(
				func(a uint64) uint64 { return e.b[a] },
				func(a uint64, v uint64) { e.b[a] = v },
				0, 1<<30,
			)
		}
		m.Run(4, func(w *Worker) {
			for i := 0; i < 500; i++ {
				addr := uint64(w.ID())*8192 + uint64(i%32)*64
				if enable {
					e.pd.OnStore(m.NVM, addr, 8)
				}
				w.Write(m.NVM, addr, 8, false)
				w.Read(m.NVM, addr+4096, 8, false)
			}
		})
		return m.Now()
	}
	if off, on := run(false), run(true); off != on {
		t.Fatalf("timing changed with persistence enabled: %d vs %d", off, on)
	}
}

// TestShadowRecyclingKeepsCrashImage walks lines through dirty → CLWB →
// fence → dirty again, so capture reuses the shadows the fence released,
// and then crashes between a CLWB and its fence. The dirty/pending sets
// and the recovered image must be what per-line shadows give: a line that
// was only partly written reverts to its own persisted words, never to
// the words a reused shadow held for another line.
func TestShadowRecyclingKeepsCrashImage(t *testing.T) {
	cfg := DefaultConfig() // LLC large enough that nothing evicts
	cfg.TraceBucket = 0
	e := newPersistEnv(t, cfg, false)
	const a, b, c, d, f = 0, 64, 128, 1024, 1088
	fill := func(w *Worker, la, base uint64) {
		for i := uint64(0); i < LineSize/8; i++ {
			e.store(w, la+8*i, base+i)
		}
	}
	expect := func(when string, dirty []uint64, pending int) {
		t.Helper()
		got := e.pd.DirtyLines()
		if len(got) != len(dirty) {
			t.Fatalf("%s: dirty lines %v, want %v", when, got, dirty)
		}
		for i := range got {
			if got[i] != dirty[i] {
				t.Fatalf("%s: dirty lines %v, want %v", when, got, dirty)
			}
		}
		if s := e.pd.Stats(); s.DirtyLines != len(dirty) || s.PendingLines != pending {
			t.Fatalf("%s: stats %d dirty / %d pending, want %d / %d", when, s.DirtyLines, s.PendingLines, len(dirty), pending)
		}
	}
	e.m.InjectFault(FaultPlan{CrashAtTime: 1 << 40})
	e.m.Run(1, func(w *Worker) {
		for round, base := range []uint64{100, 200} {
			// Round 1 re-dirties the lines round 0 persisted: its shadows
			// are round 0's, released by the fence, now holding base 100.
			for _, la := range []uint64{a, b, c} {
				fill(w, la, base+la)
			}
			expect("dirtied", []uint64{a, b, c}, 0)
			w.CLWB(e.m.NVM, a)
			w.CLWB(e.m.NVM, b)
			expect("two flushed", []uint64{c}, 2)
			e.store(w, b, base+b) // re-stored while pending: dirty again
			expect("re-stored", []uint64{b, c}, 1)
			w.CLWB(e.m.NVM, b)
			w.CLWB(e.m.NVM, c)
			w.PersistFence()
			expect("fenced", nil, 0)
			if round == 0 && len(e.pd.free) != 3 {
				t.Fatalf("fence released %d shadows, want 3", len(e.pd.free))
			}
		}
		// Three released shadows hold lines a, b, c at base 100. Dirty two
		// never-written lines with a single word each, and a again.
		e.store(w, d+8, 7)
		e.store(w, f+16, 8)
		fill(w, a, 300)
		if len(e.pd.free) != 0 {
			t.Fatalf("%d shadows left unused, want all three recycled", len(e.pd.free))
		}
		w.CLWB(e.m.NVM, a)
		w.CLWB(e.m.NVM, d)
		expect("before crash", []uint64{f}, 2)
		w.Spin(1 << 41)
		w.Spin(1) // trip the time trigger: a and d flushed but unfenced
	})
	rep, err := e.m.MaterializeCrash()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RevertedLines != 3 {
		t.Errorf("RevertedLines = %d, want 3 (a, d, f)", rep.RevertedLines)
	}
	for i := uint64(0); i < LineSize/8; i++ {
		for la, want := range map[uint64]uint64{a: 200 + a + i, b: 200 + b + i, c: 200 + c + i, d: 0, f: 0} {
			if got := e.b[la+8*i]; got != want {
				t.Errorf("line %d word %d = %d after recovery, want %d", la, i, got, want)
			}
		}
	}
}

// TestPersistHooksClipToBacking: a hook range that straddles an end of the
// tracked range acts on its in-range lines only. A store captures them
// without peeking past hi, an NT range persists the whole lines it covers
// in range, ranges wholly outside (or wrapping past 2^64) are ignored, and
// SetBacking rejects an inverted or unaligned range.
func TestPersistHooksClipToBacking(t *testing.T) {
	m := NewMachine(tinyCacheConfig())
	pd := m.EnablePersist(m.NVM, false)
	const lo, hi = 4096, 4096 + 4*LineSize
	pd.SetBacking(func(a uint64) uint64 {
		if a < lo || a >= hi {
			t.Fatalf("peek at %#x, outside [%#x, %#x)", a, lo, hi)
		}
		return a
	}, func(uint64, uint64) {}, lo, hi)
	pd.OnStore(m.NVM, hi-LineSize+8, 2*LineSize)    // straddles hi
	pd.OnStoreQuiet(m.NVM, lo-LineSize, 2*LineSize) // straddles lo
	pd.OnStore(m.NVM, hi, 8)
	pd.OnStore(m.NVM, math.MaxUint64-7, LineSize)
	if got := pd.DirtyLines(); !slices.Equal(got, []uint64{lo, hi - LineSize}) {
		t.Fatalf("dirty lines %#x, want [%#x %#x]", got, lo, hi-LineSize)
	}
	if s := pd.Stats(); s.TrackedStores != 1 {
		t.Fatalf("%d tracked stores, want 1", s.TrackedStores)
	}
	pd.OnNT(m.NVM, lo-LineSize, 2*LineSize)
	pd.OnNT(m.NVM, hi-LineSize+8, 2*LineSize) // leaves the partly covered line dirty
	if got := pd.DirtyLines(); !slices.Equal(got, []uint64{hi - LineSize}) {
		t.Fatalf("after NT: dirty lines %#x, want [%#x]", got, hi-LineSize)
	}
	for _, r := range [][2]uint64{{hi, lo}, {lo + 8, hi}, {lo, hi + 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetBacking(%#x, %#x) did not panic", r[0], r[1])
				}
			}()
			pd.SetBacking(nil, nil, r[0], r[1])
		}()
	}
}

// persistCycleLines are 4096 lines spread over eight directory pages.
func persistCycleLines() []uint64 {
	lines := make([]uint64, 4096)
	for i := range lines {
		lines[i] = uint64(i%8)<<20 + uint64(i/8)*3*LineSize
	}
	return lines
}

func newCycleDomain() (*Machine, *PersistDomain) {
	m := NewMachine(tinyCacheConfig())
	pd := m.EnablePersist(m.NVM, false)
	pd.SetBacking(func(a uint64) uint64 { return a }, func(uint64, uint64) {}, 0, 8<<20)
	return m, pd
}

// TestPersistCaptureAllocs: once the directory pages, the shadow blocks and
// the free and pending lists have grown, dirty -> evict or CLWB + fence ->
// re-dirty cycles allocate nothing.
func TestPersistCaptureAllocs(t *testing.T) {
	m, pd := newCycleDomain()
	lines := persistCycleLines()
	cycle := func() {
		for _, la := range lines {
			pd.OnStore(m.NVM, la+8, 8)
		}
		for i, la := range lines {
			if i%2 == 0 {
				pd.onEvict(m.NVM, la)
			} else {
				pd.onCLWB(m.NVM, la)
			}
		}
		pd.onFence()
	}
	cycle()
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("%v allocations per cycle of %d lines, want 0", n, len(lines))
	}
	if s := pd.Stats(); s.DirtyLines != 0 || s.PendingLines != 0 {
		t.Fatalf("cycle leaves %d dirty / %d pending lines", s.DirtyLines, s.PendingLines)
	}
}

// BenchmarkPersistCapture times the ADR line bookkeeping per line: capture
// (a store to a persisted line takes a slot and copies the line's eight
// words) and evict (a dirty line's write-back releases its slot), over the
// lines of TestPersistCaptureAllocs.
func BenchmarkPersistCapture(b *testing.B) {
	lines := persistCycleLines()
	for _, timed := range []string{"capture", "evict"} {
		b.Run(timed, func(b *testing.B) {
			m, pd := newCycleDomain()
			timer := func(on bool) {
				if on {
					b.StartTimer()
				} else {
					b.StopTimer()
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += len(lines) {
				batch := lines[:min(len(lines), b.N-done)]
				timer(timed == "capture")
				for _, la := range batch {
					pd.OnStore(m.NVM, la, 8)
				}
				timer(timed == "evict")
				for _, la := range batch {
					pd.onEvict(m.NVM, la)
				}
			}
			b.StopTimer()
		})
	}
}
