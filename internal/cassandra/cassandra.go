// Package cassandra models the paper's tail-latency experiment
// (Section 5.4, Figure 8): a cassandra-stress style client driving a
// NoSQL server JVM whose stop-the-world GC pauses stall request
// processing. The server's memory behaviour comes from a workload profile
// run over the simulated heap; request latencies are then derived exactly
// from the resulting pause timeline with an open-loop multi-server queue
// operating in "active time" (wall time minus accumulated pause time).
package cassandra

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"nvmgc/internal/gc"
	"nvmgc/internal/memsim"
	"nvmgc/internal/metrics"
	"nvmgc/internal/workload"
)

// Interval is a closed-open span of virtual time.
type Interval struct {
	Start, End memsim.Time
}

// PauseIntervals extracts GC pause intervals from a machine's phase marks
// within [from, to).
func PauseIntervals(m *memsim.Machine, from, to memsim.Time) []Interval {
	var out []Interval
	var start memsim.Time = -1
	for _, mk := range m.Marks() {
		if mk.T < from || mk.T > to {
			continue
		}
		switch mk.Label {
		case "gc-start":
			start = mk.T
		case "gc-end":
			if start >= 0 {
				out = append(out, Interval{Start: start, End: mk.T})
				start = -1
			}
		}
	}
	return out
}

// Phase describes one cassandra-stress phase (write-only or read-only).
// The server's memory behaviour comes from a workload scenario resolved
// from the shared registry — the same source gcsim and bench consume.
type Phase struct {
	Name     string
	Scenario workload.Spec
	// Service is the mean request service time outside GC pauses.
	Service memsim.Time
	// Servers is the request-processing parallelism.
	Servers int
}

// PhaseFor builds a phase around any registered scenario, so stress
// curves can be derived for YCSB mixes as well as the two canned
// cassandra phases.
func PhaseFor(name, scenario string, service memsim.Time, servers int) (Phase, error) {
	spec, err := workload.ScenarioByName(scenario)
	if err != nil {
		return Phase{}, err
	}
	return Phase{Name: name, Scenario: spec, Service: service, Servers: servers}, nil
}

func mustPhase(name, scenario string, service memsim.Time, servers int) Phase {
	p, err := PhaseFor(name, scenario, service, servers)
	if err != nil {
		panic(err)
	}
	return p
}

// WritePhase returns the insert-only phase: allocation-heavy (memtable
// churn), larger survival (batched flushes), moderate service time.
func WritePhase() Phase {
	return mustPhase("write", "cassandra-write", 60*memsim.Microsecond, 16)
}

// ReadPhase returns the read-only phase: lighter allocation (row cache
// hits and response buffers), shorter-lived garbage.
func ReadPhase() Phase {
	return mustPhase("read", "cassandra-read", 45*memsim.Microsecond, 16)
}

// StressResult is one point of the throughput-latency curve. P999ms and
// P9999ms extend the paper's p95/p99 figure into the SLO percentiles the
// fleet experiment reports; they are zero for results produced before
// those fields existed (Validate skips the check then).
type StressResult struct {
	ThroughputKQPS  float64
	P95ms, P99ms    float64
	P999ms, P9999ms float64
	MeanMs          float64
	Requests        int
}

// RunPhase executes the server-side workload under the given collector and
// returns the pause timeline and run window needed for latency simulation.
func RunPhase(col gc.Collector, phase Phase, cfg workload.Config) ([]Interval, memsim.Time, error) {
	m := col.Heap().Machine()
	r, err := phase.Scenario.NewRunner(col, cfg)
	if err != nil {
		return nil, 0, err
	}
	start := m.Now()
	res, err := r.Run()
	if err != nil {
		return nil, 0, err
	}
	pauses := PauseIntervals(m, start+res.Setup, m.Now())
	return pauses, res.Total, nil
}

// Timeline is the active-time transform of a pause timeline: a server
// only makes progress outside its GC pauses, so wall time t maps to
// active time a(t) = t - (pause time before t), and completions computed
// in active time map back to wall time through the inverse. The fleet
// simulator shares this transform, one Timeline per server instance.
type Timeline struct {
	pauses []Interval
	prefix []memsim.Time // prefix[i] = pause time before pauses[i]
}

// NewTimeline builds the transform from a pause timeline (copied and
// sorted; the caller's slice is left alone).
func NewTimeline(pauses []Interval) *Timeline {
	ps := append([]Interval(nil), pauses...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Start < ps[j].Start })
	prefix := make([]memsim.Time, len(ps)+1)
	for i, p := range ps {
		prefix[i+1] = prefix[i] + (p.End - p.Start)
	}
	return &Timeline{pauses: ps, prefix: prefix}
}

// Active returns the active time accumulated by wall time t.
func (tl *Timeline) Active(t memsim.Time) memsim.Time {
	// pause time fully before t
	i := sort.Search(len(tl.pauses), func(i int) bool { return tl.pauses[i].End > t })
	a := t - tl.prefix[i]
	if i < len(tl.pauses) && t > tl.pauses[i].Start {
		a -= t - tl.pauses[i].Start // inside pause i
	}
	return a
}

// Inverse returns the wall time at which active time a is reached: add
// the durations of every pause whose start (in active time,
// pauses[i].Start-prefix[i]) is at or before a. That start sequence is
// increasing, so binary-search it.
func (tl *Timeline) Inverse(a memsim.Time) memsim.Time {
	idx := sort.Search(len(tl.pauses), func(i int) bool {
		return tl.pauses[i].Start-tl.prefix[i] > a
	})
	return a + tl.prefix[idx]
}

// PauseTime returns the total paused time in the timeline.
func (tl *Timeline) PauseTime() memsim.Time { return tl.prefix[len(tl.pauses)] }

// MaxServers is the largest server pool EarliestFree packs into keys: the
// server index rides in a key's low 8 bits. The fleet validates its pools
// against it.
const MaxServers = 1 << freeIndexBits

const (
	freeIndexBits = 8
	// freeTimeBits bounds the next-free times a key can hold: 2^55 ns is
	// ~417 days of virtual time, the horizon memsim's own packed keys
	// (Worker.qkey, the LLC stamps) already assume.
	freeTimeBits = 63 - freeIndexBits
)

// EarliestFree returns the index of the smallest next-free time, the
// lowest index among equals: the server a FIFO pool hands its next
// request to. Which server that is depends on the service-time draws, so
// a compare-and-jump per server mispredicts. Instead each time is packed
// as free[i]<<8 | i — keys that are distinct and ordered by (time, index)
// — and the keys are reduced with the jump-free minimum the LLC's victim
// search uses (memsim.minStamp). A time outside [0, 2^55) or a pool above
// MaxServers does not fit a key; one predictable check after the loop
// sends those to the plain scan, so the result is exact for every input.
// free must not be empty.
func EarliestFree(free []memsim.Time) int {
	key := uint64(1<<63 - 1)
	var seen memsim.Time // OR of the times: a bit at or above freeTimeBits (a negative time sets bit 63) means no fit
	for i, f := range free {
		seen |= f
		key = lesser(key, uint64(f)<<freeIndexBits|uint64(i))
	}
	if uint64(seen)>>freeTimeBits == 0 && len(free) <= MaxServers {
		return int(key & (MaxServers - 1))
	}
	best := 0
	for i := 1; i < len(free); i++ {
		if free[i] < free[best] {
			best = i
		}
	}
	return best
}

// lesser is min(a, b) for a, b < 2^63, computed without a jump (the
// compiler turns the builtin min into one here).
func lesser(a, b uint64) uint64 {
	d := int64(b) - int64(a)
	return a + uint64(d&(d>>63))
}

// Latencies simulates an open-loop Poisson request stream of the given
// throughput (requests per virtual second) against a server that only
// makes progress outside the GC pauses. It returns per-request latencies
// in milliseconds.
//
// The queue is exact: requests are served FIFO by `servers` workers in
// active time a(t) = t - (pause time before t); latency is the wall-clock
// distance from arrival to completion mapped back through a's inverse.
func Latencies(pauses []Interval, window memsim.Time, throughputQPS float64, service memsim.Time, servers int, seed uint64) []float64 {
	if window <= 0 || throughputQPS <= 0 || servers < 1 {
		return nil
	}
	tl := NewTimeline(pauses)
	active := tl.Active
	inverse := tl.Inverse

	rng := rand.New(rand.NewPCG(seed, 0xDA7A))
	meanGap := float64(memsim.Second) / throughputQPS
	free := make([]memsim.Time, servers) // per-server next-free, in active time
	var lat []float64
	for t := memsim.Time(rng.ExpFloat64() * meanGap); t < window; t += memsim.Time(rng.ExpFloat64()*meanGap) + 1 {
		aArr := active(t)
		best := EarliestFree(free)
		start := aArr
		if free[best] > start {
			start = free[best]
		}
		svc := memsim.Time(rng.ExpFloat64() * float64(service))
		if svc < service/8 {
			svc = service / 8
		}
		finish := start + svc
		free[best] = finish
		wallFinish := inverse(finish)
		lat = append(lat, float64(wallFinish-t)/float64(memsim.Millisecond))
	}
	return lat
}

// Stress computes the latency curve points for the given pause timeline.
func Stress(pauses []Interval, window memsim.Time, phase Phase, throughputsKQPS []float64, seed uint64) []StressResult {
	out := make([]StressResult, 0, len(throughputsKQPS))
	for _, kqps := range throughputsKQPS {
		l := Latencies(pauses, window, kqps*1000, phase.Service, phase.Servers, seed)
		s := metrics.Summarize(l)
		sorted := append([]float64(nil), l...)
		sort.Float64s(sorted)
		tails := metrics.PercentilesSorted(sorted, 99.9, 99.99)
		out = append(out, StressResult{
			ThroughputKQPS: kqps,
			P95ms:          s.P95,
			P99ms:          s.P99,
			P999ms:         tails[0],
			P9999ms:        tails[1],
			MeanMs:         s.Mean,
			Requests:       s.N,
		})
	}
	return out
}

// Validate sanity-checks a stress result series: latency percentiles must
// be finite and non-decreasing in percentile order, through p999/p9999
// when those fields are populated.
func Validate(rs []StressResult) error {
	for _, r := range rs {
		if math.IsNaN(r.P95ms) || math.IsNaN(r.P99ms) {
			return fmt.Errorf("cassandra: NaN latency at %0.0f kqps", r.ThroughputKQPS)
		}
		if r.P99ms < r.P95ms {
			return fmt.Errorf("cassandra: p99 %.3f below p95 %.3f at %0.0f kqps", r.P99ms, r.P95ms, r.ThroughputKQPS)
		}
		if r.P999ms != 0 && !math.IsNaN(r.P999ms) && r.P999ms < r.P99ms {
			return fmt.Errorf("cassandra: p999 %.3f below p99 %.3f at %0.0f kqps", r.P999ms, r.P99ms, r.ThroughputKQPS)
		}
		if r.P9999ms != 0 && !math.IsNaN(r.P9999ms) && r.P9999ms < r.P999ms {
			return fmt.Errorf("cassandra: p9999 %.3f below p999 %.3f at %0.0f kqps", r.P9999ms, r.P999ms, r.ThroughputKQPS)
		}
	}
	return nil
}
