package memsim

// Media-fault model: per-line wear counters, deterministic wear-out,
// transient (correctable) read faults, and whole-tier degraded mode.
//
// Every fault decision is a pure function of (model seed, line address,
// per-device counters) — never of host state — so fault campaigns are
// bit-identical for a fixed seed at any host parallelism, in both the
// default and eager-yield scheduling modes. Counter mutations happen
// only inside execOp (which runs at the owner's position in global
// operation order even when delegated to a peer) or in worker segments
// between yields (whose order the cooperative scheduler fixes), so the
// draws consume counter values in deterministic simulated order.

// FaultModel configures media-error injection for one tier's device. The
// zero value disables the model entirely: no counters, no probes, no
// timing change — results stay byte-identical to a fault-free build.
type FaultModel struct {
	// Seed drives every per-line threshold and transient-fault draw.
	Seed uint64

	// TransientReadPPM is the per-probe probability, in parts per million,
	// that a charged read observes a correctable transient fault. The
	// resilience layer retries such reads with exponential backoff.
	TransientReadPPM int64

	// WearThresholdMean is the mean per-line write count at which a line
	// suffers a hard uncorrectable error (UE) and becomes permanently
	// poisoned. 0 disables wear-out. Each line's actual threshold is drawn
	// from [mean-spread, mean+spread] by a seeded hash of its address.
	WearThresholdMean   int64
	WearThresholdSpread int64

	// DegradeUETrip is the hard-error count at which the whole tier trips
	// into degraded mode (modeling Optane media management slowing the
	// DIMM down as errors accumulate): latencies triple and bandwidth
	// halves. 0 never trips.
	DegradeUETrip int64
}

// The degraded mode's latency multiplier and bandwidth divisor.
const (
	degradeLatencyX = 3
	degradeBWX      = 2
)

// Enabled reports whether the model injects any faults at all.
func (f FaultModel) Enabled() bool {
	return f.TransientReadPPM > 0 || f.WearThresholdMean > 0
}

// FaultStats is a snapshot of a device's cumulative fault counters.
type FaultStats struct {
	LineWrites      int64 // total 64 B line writes counted for wear
	LinesTouched    int64 // distinct lines ever written
	MaxLineWrites   int64 // wear of the most-written line
	TransientFaults int64 // correctable read faults served
	HardErrors      int64 // lines permanently poisoned (UEs)
	Degraded        bool  // tier tripped into degraded mode
	DegradedAt      Time  // virtual time of the trip (0 if never)
}

// faultState is the per-device media-fault state (nil when no model is
// installed — the nil check is the only cost a fault-free run pays).
type faultState struct {
	model    FaultModel
	writes   map[uint64]int64 // line -> write count
	poisoned map[uint64]bool
	fresh    []uint64 // newly poisoned lines, drained by the GC layer
	probes   uint64   // transient-fault draw counter
	degraded bool
	stats    FaultStats
}

// mix64 is the splitmix64 finalizer: a cheap, statistically strong hash
// used for per-line thresholds and transient-fault draws.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// lineThreshold draws the wear-out threshold of one line from the seeded
// distribution [mean-spread, mean+spread].
func (fs *faultState) lineThreshold(line uint64) int64 {
	m := fs.model
	t := m.WearThresholdMean
	if s := m.WearThresholdSpread; s > 0 {
		t += int64(mix64(m.Seed^line)%uint64(2*s+1)) - s
	}
	if t < 1 {
		t = 1
	}
	return t
}

// SetFaultModel installs a media-fault model on the device. A disabled
// model leaves the device immortal (and free of any per-op overhead).
func (d *Device) SetFaultModel(fm FaultModel) {
	if !fm.Enabled() {
		d.fault = nil
		return
	}
	d.fault = &faultState{
		model:    fm,
		writes:   make(map[uint64]int64),
		poisoned: make(map[uint64]bool),
	}
}

// FaultEnabled reports whether a media-fault model is installed.
func (d *Device) FaultEnabled() bool { return d.fault != nil }

// FaultStats returns a snapshot of the device's fault counters (zero value
// when no model is installed).
func (d *Device) FaultStats() FaultStats {
	if d.fault == nil {
		return FaultStats{}
	}
	return d.fault.stats
}

// Degraded reports whether the device's tier has tripped into degraded
// mode (latency/bandwidth multipliers applied to every access).
func (d *Device) Degraded() bool { return d.fault != nil && d.fault.degraded }

// countLineWrites advances the wear counter of every 64 B line in
// [addr, addr+n) and poisons lines whose count crosses their seeded
// threshold. Called from execOp, so the counting runs at the owning
// worker's position in global operation order. now stamps degradation.
func (d *Device) countLineWrites(now Time, addr uint64, n int64) {
	fs := d.fault
	if fs == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	end := addr + uint64(n)
	for line := addr &^ (LineSize - 1); line < end; line += LineSize {
		c := fs.writes[line] + 1
		if c == 1 {
			fs.stats.LinesTouched++
		}
		fs.writes[line] = c
		fs.stats.LineWrites++
		if c > fs.stats.MaxLineWrites {
			fs.stats.MaxLineWrites = c
		}
		if fs.model.WearThresholdMean > 0 && !fs.poisoned[line] && c >= fs.lineThreshold(line) {
			d.poison(now, line)
		}
	}
}

// poison marks one line as a hard UE and trips degraded mode when the
// error count reaches the model's trip point.
func (d *Device) poison(now Time, line uint64) {
	fs := d.fault
	fs.poisoned[line] = true
	fs.fresh = append(fs.fresh, line)
	fs.stats.HardErrors++
	if !fs.degraded && fs.model.DegradeUETrip > 0 && fs.stats.HardErrors >= fs.model.DegradeUETrip {
		fs.degraded = true
		fs.stats.Degraded = true
		fs.stats.DegradedAt = now
	}
}

// PoisonLine injects a hard UE on the line containing addr at virtual
// time now (explicit injection for tests and fault campaigns).
func (d *Device) PoisonLine(now Time, addr uint64) {
	if d.fault == nil {
		d.SetFaultModel(FaultModel{WearThresholdMean: 1 << 62})
	}
	line := addr &^ (LineSize - 1)
	if !d.fault.poisoned[line] {
		d.poison(now, line)
	}
}

// LinePoisoned reports whether the line containing addr carries a hard UE.
func (d *Device) LinePoisoned(addr uint64) bool {
	return d.fault != nil && d.fault.poisoned[addr&^(LineSize-1)]
}

// PoisonedInRange scans [addr, addr+n) and returns the first poisoned
// line, if any.
func (d *Device) PoisonedInRange(addr uint64, n int64) (uint64, bool) {
	fs := d.fault
	if fs == nil || fs.stats.HardErrors == 0 || n <= 0 {
		return 0, false
	}
	end := addr + uint64(n)
	for line := addr &^ (LineSize - 1); line < end; line += LineSize {
		if fs.poisoned[line] {
			return line, true
		}
	}
	return 0, false
}

// DrainNewUEs returns the lines poisoned since the last drain (in
// poisoning order, which is deterministic) and clears the pending list.
// The GC layer drains at collection end to mark bad regions.
func (d *Device) DrainNewUEs() []uint64 {
	fs := d.fault
	if fs == nil || len(fs.fresh) == 0 {
		return nil
	}
	out := fs.fresh
	fs.fresh = nil
	return out
}

// TransientReadFault draws whether a charged read of addr just suffered a
// correctable transient fault. Each call consumes one draw (retries draw
// again, so a faulting read eventually succeeds). Deterministic: the draw
// hashes the model seed, the line address, and a per-device probe counter
// whose advance order the cooperative scheduler fixes.
func (d *Device) TransientReadFault(addr uint64) bool {
	fs := d.fault
	if fs == nil || fs.model.TransientReadPPM <= 0 {
		return false
	}
	fs.probes++
	h := mix64(fs.model.Seed ^ mix64(addr>>6) ^ fs.probes*0x9E3779B97F4A7C15)
	if int64(h%1_000_000) < fs.model.TransientReadPPM {
		fs.stats.TransientFaults++
		return true
	}
	return false
}
