package memsim

import (
	"math"
	"sync/atomic"
)

// deviceIDs hands out process-unique device identifiers (see Device.id).
// Ids start at 1 so a zero way tag always means "invalid line".
var deviceIDs atomic.Uint64

// Time is a point in (or span of) virtual time, in nanoseconds.
type Time = int64

// Convenient virtual-time units.
const (
	Microsecond Time = 1_000
	Millisecond Time = 1_000_000
	Second      Time = 1_000_000_000
)

// Kind names the two classic devices. Its one use left is
// heap.Config.HeapKind; tiers are otherwise told apart by name and by
// TierSpec.Persistent.
type Kind uint8

const (
	// DRAM is conventional volatile memory.
	DRAM Kind = iota
	// NVM is non-volatile memory (modeled after Intel Optane DC PM).
	NVM
)

// Profile holds the timing and bandwidth parameters of a memory device.
// Bandwidths are in bytes per nanosecond, which is numerically equal to
// GB/s (decimal).
type Profile struct {
	ReadLatency  Time // per-operation read latency added outside the channel
	WriteLatency Time // per-operation write latency (store-buffer visible)

	PeakReadBW  float64 // peak read bandwidth, bytes/ns
	PeakWriteBW float64 // peak cached-write bandwidth, bytes/ns
	NTWriteBW   float64 // peak non-temporal (streaming) write bandwidth

	// Granularity is the internal access unit: random accesses smaller
	// than this are amplified to a full unit (256 B on Optane, the XPLine;
	// 64 B on DRAM, a cache line).
	Granularity int64

	// MixPenalty controls how strongly the effective bandwidth degrades
	// as the write fraction of recent traffic rises: the achievable
	// bandwidth is peak / (1 + MixPenalty*writeFraction). NVM bandwidth
	// is highly mix-sensitive; DRAM barely so.
	MixPenalty float64
	// NTMixPenalty is the (smaller) penalty applied to non-temporal
	// writes, which interact less with reads on NVM.
	NTMixPenalty float64
}

// DRAMProfile returns the default DRAM device model, calibrated to a
// single-socket server-class memory system.
func DRAMProfile() Profile {
	return Profile{
		ReadLatency:  90,
		WriteLatency: 90,
		PeakReadBW:   60,
		PeakWriteBW:  40,
		NTWriteBW:    35,
		Granularity:  64,
		MixPenalty:   0.3,
		NTMixPenalty: 0.2,
	}
}

// RemoteDRAMProfile returns a NUMA-remote (or CXL-attached) DRAM device
// model, following Akram et al.'s NUMA-based hybrid-memory emulation
// (arXiv:1808.00064): crossing the interconnect costs roughly 1.8x the
// local latency and halves the achievable bandwidth, and contention on
// the link makes the node slightly more sensitive to the write mix than
// local DRAM — while keeping DRAM's 64 B access granularity.
func RemoteDRAMProfile() Profile {
	return Profile{
		ReadLatency:  160,
		WriteLatency: 160,
		PeakReadBW:   30,
		PeakWriteBW:  20,
		NTWriteBW:    18,
		Granularity:  64,
		MixPenalty:   0.45,
		NTMixPenalty: 0.3,
	}
}

// OptaneProfile returns the default NVM device model, calibrated to six
// interleaved Intel Optane DC PM DIMMs on one socket (the paper's setup),
// following the measurements of Izraelevitz et al. and Yang et al.
func OptaneProfile() Profile {
	return Profile{
		ReadLatency:  300,
		WriteLatency: 120,
		PeakReadBW:   30,
		PeakWriteBW:  8,
		NTWriteBW:    13,
		Granularity:  256,
		MixPenalty:   3.5,
		NTMixPenalty: 1.0,
	}
}

type opClass uint8

const (
	opRead opClass = iota
	opWrite
	opWriteNT
)

// DeviceStats is a snapshot of a device's cumulative traffic counters.
// Byte counts are amplified (device-visible) bytes. WriteBytes =
// WritebackBytes (cache evictions) + NTBytes (streaming stores).
type DeviceStats struct {
	ReadBytes      int64
	WriteBytes     int64
	WritebackBytes int64
	NTBytes        int64
	ReadOps        int64
	WriteOps       int64
}

// Total returns the total device-visible bytes moved.
func (s DeviceStats) Total() int64 { return s.ReadBytes + s.WriteBytes }

// Sub returns the delta s minus t, for interval measurements.
func (s DeviceStats) Sub(t DeviceStats) DeviceStats {
	return DeviceStats{
		ReadBytes:      s.ReadBytes - t.ReadBytes,
		WriteBytes:     s.WriteBytes - t.WriteBytes,
		WritebackBytes: s.WritebackBytes - t.WritebackBytes,
		NTBytes:        s.NTBytes - t.NTBytes,
		ReadOps:        s.ReadOps - t.ReadOps,
		WriteOps:       s.WriteOps - t.WriteOps,
	}
}

// Device is a simulated memory device. A device is a shared channel: an
// operation of b device-visible bytes occupies the channel for
// b/effectiveBandwidth nanoseconds, serialized behind earlier operations.
// This is what makes aggregate bandwidth saturate under parallel GC
// threads. Devices are not safe for host-level concurrent use: the
// cooperative scheduler runs one worker at a time, and in a pipelined
// single-worker phase only the accountant goroutine touches a device
// between two drains (see pipeline).
type Device struct {
	name string
	prof Profile
	// id is a process-unique nonzero identifier used to pack (device,
	// line address) into the LLC's single-word way tags (Cache.lineKey).
	id uint64

	nextFree Time // when the transfer channel becomes free

	// Exponentially-decayed read/write byte ledger (time constant
	// mixWindow) used to estimate the current write fraction of the
	// traffic mix.
	lastMix Time
	readEW  float64
	writeEW float64

	stats DeviceStats
	trace *Trace

	// fault is the media-fault state (nil when no FaultModel is installed;
	// see fault.go). The nil check is the only cost a fault-free run pays.
	fault *faultState

	// pipe is the owning machine's pipeline, drained before a read of the
	// state above; nil for a device outside any machine.
	pipe *pipeline
}

// NewDevice creates a device with the given profile. If traceBucket is
// positive, the device records a bandwidth trace with that bucket width.
func NewDevice(name string, prof Profile, traceBucket Time) *Device {
	d := &Device{
		name: name,
		prof: prof,
		id:   deviceIDs.Add(1),
	}
	if traceBucket > 0 {
		d.trace = &Trace{bucket: traceBucket}
	}
	return d
}

// Name returns the device's display name.
func (d *Device) Name() string { return d.name }

// Profile returns the device's parameter profile.
func (d *Device) Profile() Profile { return d.prof }

// Stats returns a snapshot of cumulative traffic counters.
func (d *Device) Stats() DeviceStats {
	d.pipe.sync()
	return d.stats
}

// Trace returns the device's bandwidth trace, or nil if tracing is off.
// Inside a phase the trace is current as of the call.
func (d *Device) Trace() *Trace {
	d.pipe.sync()
	return d.trace
}

// amplify rounds a transfer up to whole access units: cache lines for a
// sequential stream, the device's granularity (at least a line) otherwise.
// Every shipped profile's unit is a power of two, which a mask rounds
// without the divide a device access would otherwise pay.
func (d *Device) amplify(bytes int64, seq bool) int64 {
	g := int64(64)
	if !seq && d.prof.Granularity > g {
		g = d.prof.Granularity
	}
	if bytes < g {
		return g
	}
	if g&(g-1) == 0 {
		return (bytes + g - 1) &^ (g - 1)
	}
	return (bytes + g - 1) / g * g
}

// mixWindow is the time constant of the traffic-mix ledger, in ns.
const mixWindow = float64(50 * Microsecond)

// decayTab[dt] is the ledger's decay factor over dt ns. Device accesses of
// a busy phase are nanoseconds apart, so nearly every decay is a short one;
// the table is filled once, by the expression decayMix evaluates for a
// longer dt, and only read afterwards — so a lookup is that expression's
// value bit for bit, and machines running in parallel share it safely.
var decayTab = func() (t [8192]float64) {
	for dt := range t {
		t[dt] = math.Exp(-float64(dt) / mixWindow)
	}
	return t
}()

func (d *Device) decayMix(now Time) {
	dt := now - d.lastMix
	if dt <= 0 {
		return
	}
	var f float64
	if dt < Time(len(decayTab)) {
		f = decayTab[dt]
	} else {
		f = math.Exp(-float64(dt) / mixWindow)
	}
	d.readEW *= f
	d.writeEW *= f
	d.lastMix = now
}

// writeFraction reports the current write share of the recent traffic mix.
func (d *Device) writeFraction(now Time) float64 {
	d.decayMix(now)
	t := d.readEW + d.writeEW
	if t <= 0 {
		return 0
	}
	return d.writeEW / t
}

func (d *Device) effBW(class opClass, wf float64) float64 {
	switch class {
	case opRead:
		return d.prof.PeakReadBW / (1 + d.prof.MixPenalty*wf)
	case opWrite:
		return d.prof.PeakWriteBW / (1 + d.prof.MixPenalty*wf)
	default: // opWriteNT
		return d.prof.NTWriteBW / (1 + d.prof.NTMixPenalty*wf)
	}
}

// access simulates one device operation issued at virtual time now and
// returns its completion time (transfer end plus latency). The channel
// occupancy (queueing) models bandwidth saturation; latency is paid
// per-operation outside the channel.
func (d *Device) access(now Time, class opClass, bytes int64, seq bool) Time {
	if bytes <= 0 {
		return now
	}
	amp := d.amplify(bytes, seq)
	wf := d.writeFraction(now)
	bw := d.effBW(class, wf)
	if d.fault != nil && d.fault.degraded {
		// Degraded mode: media management slows the whole tier down.
		bw /= degradeBWX
	}
	transfer := Time(float64(amp) / bw)
	if transfer < 1 {
		transfer = 1
	}
	start := now
	if d.nextFree > start {
		start = d.nextFree
	}
	end := start + transfer
	d.nextFree = end

	if class == opRead {
		d.stats.ReadBytes += amp
		d.stats.ReadOps++
		d.readEW += float64(amp)
	} else {
		d.stats.WriteBytes += amp
		d.stats.WriteOps++
		d.writeEW += float64(amp)
		if class == opWriteNT {
			d.stats.NTBytes += amp
		} else {
			d.stats.WritebackBytes += amp
		}
	}
	if d.trace != nil {
		d.trace.add(end, amp, class != opRead)
	}

	var lat Time
	if class == opRead {
		lat = d.prof.ReadLatency
	} else {
		lat = d.prof.WriteLatency
	}
	if d.fault != nil && d.fault.degraded {
		lat = Time(float64(lat) * degradeLatencyX)
	}
	return end + lat
}
