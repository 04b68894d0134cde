package memsim

import "testing"

// TestFaultModelDisabled: a zero model installs nothing, and a device
// without a model answers every probe negatively at zero cost.
func TestFaultModelDisabled(t *testing.T) {
	d := NewDevice("nvm", OptaneProfile(), 0)
	if d.FaultEnabled() {
		t.Fatal("fresh device claims a fault model")
	}
	d.SetFaultModel(FaultModel{}) // disabled: no-op
	if d.FaultEnabled() {
		t.Fatal("disabled model was installed")
	}
	if d.TransientReadFault(0x1000) {
		t.Fatal("transient fault without a model")
	}
	if _, bad := d.PoisonedInRange(0, 1<<20); bad {
		t.Fatal("poisoned line without a model")
	}
	if d.Degraded() || d.LinePoisoned(0) || d.DrainNewUEs() != nil {
		t.Fatal("fault state without a model")
	}
	if d.FaultStats() != (FaultStats{}) {
		t.Fatal("non-zero stats without a model")
	}
	d.countLineWrites(0, 0x1000, 128) // must not panic or allocate state
	if d.FaultEnabled() {
		t.Fatal("countLineWrites resurrected a model")
	}
}

// TestLineThresholdDistribution: thresholds are a pure function of
// (seed, line), bounded by the spread, and never below 1.
func TestLineThresholdDistribution(t *testing.T) {
	fs := &faultState{model: FaultModel{Seed: 42, WearThresholdMean: 100, WearThresholdSpread: 30}}
	var lo, hi int64 = 1 << 62, 0
	for i := uint64(0); i < 512; i++ {
		line := i * LineSize
		th := fs.lineThreshold(line)
		if th2 := fs.lineThreshold(line); th2 != th {
			t.Fatalf("line %#x: threshold not stable: %d then %d", line, th, th2)
		}
		if th < 70 || th > 130 {
			t.Fatalf("line %#x: threshold %d outside [70,130]", line, th)
		}
		if th < lo {
			lo = th
		}
		if th > hi {
			hi = th
		}
	}
	if lo == hi {
		t.Fatalf("512 lines all drew threshold %d: spread not applied", lo)
	}
	// A mean at or below the spread still yields a positive threshold.
	tiny := &faultState{model: FaultModel{Seed: 1, WearThresholdMean: 1, WearThresholdSpread: 5}}
	for i := uint64(0); i < 64; i++ {
		if th := tiny.lineThreshold(i * LineSize); th < 1 {
			t.Fatalf("line %d: threshold %d < 1", i, th)
		}
	}
}

// TestWearPoisonsAndDrains: crossing a line's threshold poisons it exactly
// once, surfaces it in one drain, and updates the wear statistics.
func TestWearPoisonsAndDrains(t *testing.T) {
	d := NewDevice("nvm", OptaneProfile(), 0)
	d.SetFaultModel(FaultModel{Seed: 9, WearThresholdMean: 3})
	const line = 0x4000
	for i := 0; i < 2; i++ {
		d.countLineWrites(Time(i), line, 8)
		if d.LinePoisoned(line) {
			t.Fatalf("line poisoned after %d writes, threshold 3", i+1)
		}
	}
	d.countLineWrites(2, line, 8)
	if !d.LinePoisoned(line) {
		t.Fatal("line not poisoned at its threshold")
	}
	if !d.LinePoisoned(line + 8) {
		t.Fatal("poison not line-granular: offset within the line reads clean")
	}
	if d.LinePoisoned(line + LineSize) {
		t.Fatal("poison leaked into the next line")
	}
	if got, bad := d.PoisonedInRange(line-LineSize, 3*LineSize); !bad || got != line {
		t.Fatalf("PoisonedInRange = (%#x,%v), want (%#x,true)", got, bad, line)
	}
	if _, bad := d.PoisonedInRange(line+LineSize, LineSize); bad {
		t.Fatal("PoisonedInRange found poison outside the range")
	}
	fresh := d.DrainNewUEs()
	if len(fresh) != 1 || fresh[0] != line {
		t.Fatalf("drain = %#x, want exactly [%#x]", fresh, line)
	}
	if d.DrainNewUEs() != nil {
		t.Fatal("second drain not empty")
	}
	fs := d.FaultStats()
	if fs.HardErrors != 1 || fs.MaxLineWrites != 3 || fs.LinesTouched != 1 || fs.LineWrites != 3 {
		t.Fatalf("stats %+v", fs)
	}
	// Further writes to a dead line do not poison it again.
	d.countLineWrites(3, line, 8)
	if d.FaultStats().HardErrors != 1 {
		t.Fatal("dead line poisoned twice")
	}
	if d.DrainNewUEs() != nil {
		t.Fatal("dead line re-surfaced in a drain")
	}
}

// TestCountLineWritesSpansLines: a multi-line write advances every covered
// line's counter; a zero-length op still counts its first line.
func TestCountLineWritesSpansLines(t *testing.T) {
	d := NewDevice("nvm", OptaneProfile(), 0)
	d.SetFaultModel(FaultModel{Seed: 1, WearThresholdMean: 1 << 40})
	d.countLineWrites(0, 0x1000, 3*LineSize)
	if got := d.FaultStats().LinesTouched; got != 3 {
		t.Fatalf("3-line write touched %d lines", got)
	}
	d.countLineWrites(0, 0x8020, 0)
	if got := d.FaultStats().LinesTouched; got != 4 {
		t.Fatalf("word write touched %d lines in total, want 4", got)
	}
	// Unaligned range crossing a line boundary covers both lines.
	d.countLineWrites(0, 0x9038, 16)
	if got := d.FaultStats().LinesTouched; got != 6 {
		t.Fatalf("straddling write touched %d lines in total, want 6", got)
	}
}

// TestDegradedTripSlowsTier: reaching DegradeUETrip hard errors flips the
// tier into degraded mode, and a degraded machine's charged reads take
// strictly longer than a healthy one's.
func TestDegradedTripSlowsTier(t *testing.T) {
	run := func(poison int) Time {
		cfg := DefaultConfig()
		cfg.Tiers = WithFault(cfg.Tiers, FaultModel{Seed: 2, WearThresholdMean: 1 << 40, DegradeUETrip: 2})
		m := NewMachine(cfg)
		nvm, _ := m.Topology().Tier("nvm")
		for i := 0; i < poison; i++ {
			nvm.PoisonLine(0, uint64(i)*LineSize)
		}
		m.Run(1, func(w *Worker) {
			for i := 0; i < 64; i++ {
				w.Read(nvm.Device, 1<<20+uint64(i)*4096, 256, false)
			}
		})
		return m.Now()
	}
	healthy := run(0)
	one := run(1)
	if one != healthy {
		t.Fatalf("one UE below the trip changed timing: %d vs %d", one, healthy)
	}
	degraded := run(2)
	if degraded <= healthy {
		t.Fatalf("degraded reads not slower: %d vs %d", degraded, healthy)
	}
}

// TestPoisonLineInstallsSentinel: explicit poisoning works on a device
// with no configured model (the injection path for tests and campaigns)
// and records degradation state in the stats snapshot.
func TestPoisonLineInstallsSentinel(t *testing.T) {
	d := NewDevice("nvm", OptaneProfile(), 0)
	d.PoisonLine(5, 0x2008)
	if !d.FaultEnabled() {
		t.Fatal("PoisonLine did not install a sentinel model")
	}
	if !d.LinePoisoned(0x2000) {
		t.Fatal("line not poisoned")
	}
	d.PoisonLine(6, 0x2010) // same line: no double count
	if d.FaultStats().HardErrors != 1 {
		t.Fatalf("duplicate PoisonLine double-counted: %+v", d.FaultStats())
	}
	// The sentinel model never trips degradation or wears lines out.
	if d.Degraded() {
		t.Fatal("sentinel model degraded the tier")
	}
}

// TestTransientDrawDeterministic: the transient-fault sequence is a pure
// function of (seed, address, probe order) — two devices replaying the
// same probe sequence agree draw for draw, and the rate lands near PPM.
func TestTransientDrawDeterministic(t *testing.T) {
	mk := func() *Device {
		d := NewDevice("nvm", OptaneProfile(), 0)
		d.SetFaultModel(FaultModel{Seed: 77, TransientReadPPM: 50_000})
		return d
	}
	a, b := mk(), mk()
	faults := 0
	const probes = 20_000
	for i := 0; i < probes; i++ {
		addr := uint64(i%997) * 64
		fa, fb := a.TransientReadFault(addr), b.TransientReadFault(addr)
		if fa != fb {
			t.Fatalf("probe %d: devices disagree", i)
		}
		if fa {
			faults++
		}
	}
	if int64(faults) != a.FaultStats().TransientFaults {
		t.Fatalf("stats count %d, observed %d", a.FaultStats().TransientFaults, faults)
	}
	// 5% rate over 20k probes: expect ~1000, accept a generous band.
	if faults < 700 || faults > 1300 {
		t.Fatalf("%d faults in %d probes at 5%%: draw badly biased", faults, probes)
	}
	// The draw depends on the probe counter: the same address probed twice
	// in a row must not be forced to fault twice (retries can succeed).
	c := mk()
	stuck := true
	for i := 0; i < probes && stuck; i++ {
		if c.TransientReadFault(0x1234) {
			stuck = c.TransientReadFault(0x1234)
		}
	}
	if stuck {
		t.Fatal("a faulting address never succeeded on retry")
	}
}

// TestWithFault: the model lands on every persistent tier and on no
// volatile one, in a copy; the caller's topology keeps its zero models.
func TestWithFault(t *testing.T) {
	orig := append(DefaultConfig().Tiers,
		TierSpec{Name: "remote-dram", Profile: RemoteDRAMProfile()},
		TierSpec{Name: "nvm2", Profile: OptaneProfile(), Persistent: true})
	fm := FaultModel{Seed: 7, TransientReadPPM: 100, WearThresholdMean: 4096}
	out := WithFault(orig, fm)
	if len(out) != len(orig) {
		t.Fatalf("%d tiers in, %d out", len(orig), len(out))
	}
	for i, ts := range out {
		if ts.Persistent != (ts.Fault == fm) {
			t.Errorf("tier %q (persistent %v) got fault model %+v", ts.Name, ts.Persistent, ts.Fault)
		}
		if orig[i].Fault.Enabled() {
			t.Errorf("WithFault wrote the caller's tier %q", orig[i].Name)
		}
	}
	if got := WithFault(nil, fm); len(got) != 0 {
		t.Errorf("nil topology came back as %v", got)
	}
}
