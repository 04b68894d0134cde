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
	"math/bits"
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
func PauseIntervals(marks []memsim.PhaseMark, from, to memsim.Time) []Interval {
	var out []Interval
	var start memsim.Time = -1
	for _, mk := range marks {
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
// The server's memory behaviour is a workload scenario named in the
// shared registry — the same source gcsim and bench consume — so stress
// curves can be derived for YCSB mixes as well as the two canned phases.
type Phase struct {
	Name string
	// Scenario names the registered scenario the server runs; RunPhase
	// resolves it.
	Scenario string
	// Service is the mean request service time outside GC pauses.
	Service memsim.Time
	// Servers is the request-processing parallelism.
	Servers int
}

// WritePhase returns the insert-only phase: allocation-heavy (memtable
// churn), larger survival (batched flushes), moderate service time.
func WritePhase() Phase {
	return Phase{Name: "write", Scenario: "cassandra-write", Service: 60 * memsim.Microsecond, Servers: 16}
}

// ReadPhase returns the read-only phase: lighter allocation (row cache
// hits and response buffers), shorter-lived garbage.
func ReadPhase() Phase {
	return Phase{Name: "read", Scenario: "cassandra-read", Service: 45 * memsim.Microsecond, Servers: 16}
}

// StressResult is one point of the throughput-latency curve.
type StressResult struct {
	ThroughputKQPS float64
	P95ms, P99ms   float64
	MeanMs         float64
	Requests       int
}

// RunPhase executes the server-side workload under the given collector and
// returns the pause timeline and run window needed for latency simulation.
// An unknown scenario name is an error.
func RunPhase(col gc.Collector, phase Phase, cfg workload.Config) ([]Interval, memsim.Time, error) {
	m := col.Heap().Machine()
	spec, err := workload.ScenarioByName(phase.Scenario)
	if err != nil {
		return nil, 0, err
	}
	r, err := spec.NewRunner(col, cfg)
	if err != nil {
		return nil, 0, err
	}
	start := m.Now()
	res, err := r.Run()
	if err != nil {
		return nil, 0, err
	}
	pauses := PauseIntervals(m.Marks(), start+res.Setup, m.Now())
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

// NewTimeline builds the transform from a pause timeline. The intervals
// are copied (the caller's slice is left alone), sorted, cleared of empty
// and inverted ones, and merged where they overlap or touch, so pause ends
// and active-time starts both increase, which the binary searches and
// Queue's cursor rely on.
func NewTimeline(pauses []Interval) *Timeline {
	ps := make([]Interval, 0, len(pauses))
	for _, p := range pauses {
		if p.End > p.Start {
			ps = append(ps, p)
		}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Start < ps[j].Start })
	merged := ps[:0]
	for _, p := range ps {
		if k := len(merged) - 1; k >= 0 && p.Start <= merged[k].End {
			merged[k].End = max(merged[k].End, p.End)
			continue
		}
		merged = append(merged, p)
	}
	ps = merged
	prefix := make([]memsim.Time, len(ps)+1)
	for i, p := range ps {
		prefix[i+1] = prefix[i] + (p.End - p.Start)
	}
	return &Timeline{pauses: ps, prefix: prefix}
}

// Active returns the active time accumulated by wall time t.
func (tl *Timeline) Active(t memsim.Time) memsim.Time {
	return tl.activeAt(sort.Search(len(tl.pauses), func(i int) bool { return tl.pauses[i].End > t }), t)
}

// activeAt is Active given i, the first pause ending after t: the pauses
// before i lie wholly before t.
func (tl *Timeline) activeAt(i int, t memsim.Time) memsim.Time {
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

// MaxServers is the largest server pool a Queue picks from its winner
// tree: the server index rides in a key's low 8 bits. A larger pool is
// served by the plain scan; the fleet holds its pools to this size.
const MaxServers = 1 << freeIndexBits

const (
	freeIndexBits = 8
	// freeTimeBits bounds the next-free times a key can hold: memsim's
	// virtual-time horizon.
	freeTimeBits = memsim.HorizonBits
	// noServer is the key of a leaf past the pool; every real key is
	// smaller.
	noServer = memsim.Time(math.MaxInt64)
	// gallopAfter is how many pauses a cursor steps over one by one before
	// it gallops, so a long jump stays logarithmic.
	gallopAfter = 4
)

// A key, a next-free time over a server index, must fit a non-negative
// int64; this constant overflows at compile time if it does not.
const _ uint = 63 - freeTimeBits - freeIndexBits

// Queue is one instance's FIFO server pool serving in active time: a
// request arriving at wall time t goes to the server that frees up first
// (the lowest index among equals), starts at the later of Active(t) and
// that server's next-free time, and completes at Inverse(start + svc).
//
// Which server frees up first depends on the service-time draws, so a
// compare-and-jump scan mispredicts. The pick reads a winner tree over
// the keys free<<8 | i, which are distinct and ordered by (time, index);
// a store is one leaf write and a jump-free replay of its path to the
// root. A pool above MaxServers, or a finish outside [0, 2^55), does not
// fit a key: that queue scans its next-free times from then on, so the
// result is exact for every input.
//
// The timeline transform walks forward. next is the first pause ending
// after the last arrival, so Active steps on from it when arrivals do not
// go back in time (the fleet serves arms in time order). Inverse scans
// from it too: every pause j before next ends by the arrival t, so its
// active-time start Active(End_j) is at most Active(t) ≤ finish, where
// the binary search's predicate is false as well. An earlier arrival, or
// a finish below Active(t) (a negative or wrapped service time), takes
// the binary search instead, and a cursor that would step over more than
// gallopAfter pauses gallops.
type Queue struct {
	tl *Timeline
	// keys is the winner tree: keys[1] is the smallest key, and leaf
	// len(keys)/2+i holds server i's. Nil once the queue scans.
	keys []memsim.Time
	// free is the tree's leaf row while keys is set, and the servers'
	// next-free times (active time) after.
	free []memsim.Time
	next int
	last memsim.Time
}

// NewQueues returns one Queue of `servers` servers, all free at active
// time 0, per timeline, in two allocations. servers must be at least 1.
func NewQueues(tls []*Timeline, servers int) []Queue {
	leaves := 1 << bits.Len(uint(servers-1))
	words := 2 * leaves
	if servers > MaxServers {
		words = servers
	}
	qs := make([]Queue, len(tls))
	slab := make([]memsim.Time, len(tls)*words)
	for i, tl := range tls {
		w := slab[i*words : (i+1)*words : (i+1)*words]
		qs[i].tl = tl
		if servers > MaxServers {
			qs[i].free = w
			continue
		}
		for j := range leaves {
			w[leaves+j] = noServer
			if j < servers {
				w[leaves+j] = memsim.Time(j)
			}
		}
		for j := leaves - 1; j > 0; j-- {
			w[j] = min(w[2*j], w[2*j+1])
		}
		qs[i].keys, qs[i].free = w, w[leaves:leaves+servers]
	}
	return qs
}

// Serve queues a request arriving at wall time t that needs svc of active
// time, and returns the wall time it completes.
func (q *Queue) Serve(t, svc memsim.Time) (wall memsim.Time) {
	a := q.active(t)
	if k := q.keys; k != nil {
		top := k[1]
		i := top & (MaxServers - 1)
		finish := max(a, top>>freeIndexBits) + svc
		if uint64(finish)>>freeTimeBits == 0 {
			q.store(int(i), finish<<freeIndexBits|i)
			return q.inverse(a, finish)
		}
		for j := range q.free {
			q.free[j] >>= freeIndexBits
		}
		q.keys = nil
	}
	fr := q.free
	best := 0
	for i := 1; i < len(fr); i++ {
		if fr[i] < fr[best] {
			best = i
		}
	}
	finish := max(a, fr[best]) + svc
	fr[best] = finish
	return q.inverse(a, finish)
}

// store writes server i's key and replays its path to the root. The min
// is arithmetic (valid for operands in [0, 2^63), which keys and noServer
// are), as in memsim's run queue.
func (q *Queue) store(i int, key memsim.Time) {
	t := q.keys
	j := len(t)/2 + i
	t[j] = key
	for j > 1 {
		d := t[j^1] - key
		key += d & (d >> 63)
		j >>= 1
		t[j] = key
	}
}

// active is Timeline.Active through the cursor, which it moves to t.
func (q *Queue) active(t memsim.Time) memsim.Time {
	ps := q.tl.pauses
	i := q.next
	if t < q.last {
		i = sort.Search(len(ps), func(j int) bool { return ps[j].End > t })
	} else {
		for n := 0; i < len(ps) && ps[i].End <= t; i++ {
			if n++; n == gallopAfter {
				i = gallop(i, len(ps), func(j int) bool { return ps[j].End > t })
				break
			}
		}
	}
	q.next, q.last = i, t
	return q.tl.activeAt(i, t)
}

// inverse is Timeline.Inverse(finish) for a finish served at active time
// a, the cursor's last arrival.
func (q *Queue) inverse(a, finish memsim.Time) memsim.Time {
	if finish < a {
		return q.tl.Inverse(finish)
	}
	ps, prefix := q.tl.pauses, q.tl.prefix
	i := q.next
	for n := 0; i < len(ps) && ps[i].Start-prefix[i] <= finish; i++ {
		if n++; n == gallopAfter {
			i = gallop(i, len(ps), func(j int) bool { return ps[j].Start-prefix[j] > finish })
			break
		}
	}
	return finish + prefix[i]
}

// gallop returns the first j in (i, n) where f holds, or n, for f false at
// i and monotone: it doubles its stride from i until f holds, then
// bisects the last stride.
func gallop(i, n int, f func(int) bool) int {
	step := 1
	for i+step < n && !f(i+step) {
		i += step
		step *= 2
	}
	hi := min(i+step, n)
	return i + 1 + sort.Search(hi-i-1, func(k int) bool { return f(i + 1 + k) })
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
	q := &NewQueues([]*Timeline{NewTimeline(pauses)}, servers)[0]

	rng := rand.New(rand.NewPCG(seed, 0xDA7A))
	meanGap := float64(memsim.Second) / throughputQPS
	var lat []float64
	for t := memsim.Time(rng.ExpFloat64() * meanGap); t < window; t += memsim.Time(rng.ExpFloat64()*meanGap) + 1 {
		svc := memsim.Time(rng.ExpFloat64() * float64(service))
		if svc < service/8 {
			svc = service / 8
		}
		lat = append(lat, float64(q.Serve(t, svc)-t)/float64(memsim.Millisecond))
	}
	return lat
}

// Stress computes the latency curve points for the given pause timeline.
func Stress(pauses []Interval, window memsim.Time, phase Phase, throughputsKQPS []float64, seed uint64) []StressResult {
	out := make([]StressResult, 0, len(throughputsKQPS))
	for _, kqps := range throughputsKQPS {
		l := Latencies(pauses, window, kqps*1000, phase.Service, phase.Servers, seed)
		sort.Float64s(l)
		var sum float64
		for _, v := range l {
			sum += v
		}
		out = append(out, StressResult{
			ThroughputKQPS: kqps,
			P95ms:          metrics.Quantile(l, 95),
			P99ms:          metrics.Quantile(l, 99),
			MeanMs:         sum / float64(len(l)), // NaN for no requests
			Requests:       len(l),
		})
	}
	return out
}

// Validate sanity-checks a stress result series: latency percentiles must
// be finite and non-decreasing in percentile order.
func Validate(rs []StressResult) error {
	for _, r := range rs {
		if math.IsNaN(r.P95ms) || math.IsNaN(r.P99ms) {
			return fmt.Errorf("cassandra: NaN latency at %0.0f kqps", r.ThroughputKQPS)
		}
		if r.P99ms < r.P95ms {
			return fmt.Errorf("cassandra: p99 %.3f below p95 %.3f at %0.0f kqps", r.P99ms, r.P95ms, r.ThroughputKQPS)
		}
	}
	return nil
}
