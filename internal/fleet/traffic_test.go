package fleet

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"nvmgc/internal/cassandra"
	"nvmgc/internal/memsim"
)

// syntheticTimelines builds n pause timelines; instance 0 carries one
// long pause in the middle of the window, the rest are pause-free.
func syntheticTimelines(n int, pause cassandra.Interval) []*cassandra.Timeline {
	tls := make([]*cassandra.Timeline, n)
	for i := range tls {
		var ps []cassandra.Interval
		if i == 0 {
			ps = []cassandra.Interval{pause}
		}
		tls[i] = cassandra.NewTimeline(ps)
	}
	return tls
}

func testTraffic() Traffic {
	return Traffic{
		QPS: 50_000, Service: 60 * memsim.Microsecond, Servers: 4,
		Tenants: 64, Theta: 0.99, Seed: 7, Record: true,
	}
}

const testWindow = 40 * memsim.Millisecond

// TestHedgedRequestCommitsOnce is the side-effect property: however many
// arms a request fans out to, exactly one commit is recorded — for every
// request, not just in aggregate.
func TestHedgedRequestCommitsOnce(t *testing.T) {
	tls := syntheticTimelines(3, cassandra.Interval{Start: 10 * memsim.Millisecond, End: 18 * memsim.Millisecond})
	tr := testTraffic()
	tr.HedgeAfter = 500 * memsim.Microsecond
	tr.RetryAfter = 4 * memsim.Millisecond
	tr.MaxRetries = 2
	perI, stats, traces, err := SimulateTraffic(tls, testWindow, tr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hedged == 0 {
		t.Fatal("the 8ms pause should have triggered hedging")
	}
	if stats.HedgeWins == 0 {
		t.Fatal("hedges to pause-free replicas should win sometimes")
	}
	if stats.Commits != stats.Requests {
		t.Fatalf("%d commits for %d requests — the hedge produced a duplicate side effect", stats.Commits, stats.Requests)
	}
	var latencies int64
	for _, s := range perI {
		latencies += int64(len(s))
	}
	if latencies != stats.Requests {
		t.Fatalf("%d recorded latencies for %d requests", latencies, stats.Requests)
	}
	if int64(len(traces)) != stats.Requests {
		t.Fatalf("%d traces for %d requests", len(traces), stats.Requests)
	}
	multiArm := 0
	for _, tc := range traces {
		if tc.Commits != 1 {
			t.Fatalf("request %d committed %d times (arms=%d hedged=%v retries=%d)",
				tc.ID, tc.Commits, tc.Arms, tc.Hedged, tc.Retries)
		}
		if tc.Arms > 1 {
			multiArm++
		}
		want := 1
		if tc.Hedged {
			want++
		}
		want += tc.Retries
		if tc.Arms != want {
			t.Fatalf("request %d issued %d arms, want %d (hedged=%v retries=%d)",
				tc.ID, tc.Arms, want, tc.Hedged, tc.Retries)
		}
	}
	if multiArm == 0 {
		t.Fatal("no request fanned out to more than one arm")
	}
}

// TestRetryCountsReproducible reruns the same traffic and demands
// identical stats and traces; a different seed must route differently.
func TestRetryCountsReproducible(t *testing.T) {
	tls := syntheticTimelines(3, cassandra.Interval{Start: 8 * memsim.Millisecond, End: 20 * memsim.Millisecond})
	tr := testTraffic()
	tr.RetryAfter = 2 * memsim.Millisecond
	tr.MaxRetries = 3
	perI1, stats1, traces1, err := SimulateTraffic(tls, testWindow, tr)
	if err != nil {
		t.Fatal(err)
	}
	if stats1.Retries == 0 {
		t.Fatal("the 12ms pause should have blown the 2ms retry deadline")
	}
	perI2, stats2, traces2, err := SimulateTraffic(tls, testWindow, tr)
	if err != nil {
		t.Fatal(err)
	}
	if stats1 != stats2 {
		t.Fatalf("same seed, different stats:\n%+v\n%+v", stats1, stats2)
	}
	if !reflect.DeepEqual(perI1, perI2) {
		t.Fatal("same seed, different latency series")
	}
	if !reflect.DeepEqual(traces1, traces2) {
		t.Fatal("same seed, different request traces")
	}
	tr.Seed = 8
	_, stats3, _, err := SimulateTraffic(tls, testWindow, tr)
	if err != nil {
		t.Fatal(err)
	}
	if stats1 == stats3 {
		t.Fatalf("different seeds produced identical stats %+v", stats1)
	}
}

// TestOpenLoopQueuesDuringPause is the modelling point of the fleet:
// arrivals do not stop during a GC pause, they queue — so a pause turns
// into tail latency on the order of the pause length, which a pause-free
// replica never shows.
func TestOpenLoopQueuesDuringPause(t *testing.T) {
	pause := cassandra.Interval{Start: 10 * memsim.Millisecond, End: 16 * memsim.Millisecond}
	tr := testTraffic()
	tr.Tenants = 1 // pin all load to instance 0's home shard
	paused, _, _, err := SimulateTraffic(syntheticTimelines(1, pause), testWindow, tr)
	if err != nil {
		t.Fatal(err)
	}
	smooth, _, _, err := SimulateTraffic([]*cassandra.Timeline{cassandra.NewTimeline(nil)}, testWindow, tr)
	if err != nil {
		t.Fatal(err)
	}
	pMax := paused[0][len(paused[0])-1]
	sMax := smooth[0][len(smooth[0])-1]
	pauseMs := float64(pause.End-pause.Start) / float64(memsim.Millisecond)
	if pMax < pauseMs {
		t.Fatalf("worst latency %.3fms under a %.0fms pause — arrivals did not queue through it", pMax, pauseMs)
	}
	if sMax > pauseMs/2 {
		t.Fatalf("pause-free worst latency %.3fms is implausibly high", sMax)
	}
}

// TestTrafficValidate walks each invalid parameter.
func TestTrafficValidate(t *testing.T) {
	base := testTraffic()
	if err := base.Validate(); err != nil {
		t.Fatalf("valid traffic rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Traffic)
	}{
		{"zero qps", func(tr *Traffic) { tr.QPS = 0 }},
		{"negative qps", func(tr *Traffic) { tr.QPS = -1 }},
		{"NaN qps", func(tr *Traffic) { tr.QPS = math.NaN() }},
		{"infinite qps", func(tr *Traffic) { tr.QPS = math.Inf(1) }},
		{"qps above 1e9", func(tr *Traffic) { tr.QPS = math.Nextafter(1e9, math.Inf(1)) }}, // mean gap below 1 ns: silently capped
		{"qps 1e300", func(tr *Traffic) { tr.QPS = 1e300 }},                                // used to run for minutes
		{"zero service", func(tr *Traffic) { tr.Service = 0 }},
		{"service at the horizon", func(tr *Traffic) { tr.Service = horizon }},
		{"zero servers", func(tr *Traffic) { tr.Servers = 0 }},
		{"too many servers", func(tr *Traffic) { tr.Servers = MaxServers + 1 }},
		{"servers 1<<62", func(tr *Traffic) { tr.Servers = 1 << 62 }}, // used to panic in make
		{"zero tenants", func(tr *Traffic) { tr.Tenants = 0 }},
		{"too many tenants", func(tr *Traffic) { tr.Tenants = MaxTenants + 1 }},
		{"tenants 1e12", func(tr *Traffic) { tr.Tenants = 1e12 }}, // used to spin in the zeta series
		{"theta at 0", func(tr *Traffic) { tr.Theta = 0 }},
		{"theta at 1", func(tr *Traffic) { tr.Theta = 1 }},
		{"NaN theta", func(tr *Traffic) { tr.Theta = math.NaN() }},
		{"negative hedge", func(tr *Traffic) { tr.HedgeAfter = -1 }},
		{"hedge at MaxInt64", func(tr *Traffic) { tr.HedgeAfter = math.MaxInt64 }}, // t0+HedgeAfter wrapped: every request hedged into the past
		{"negative retry", func(tr *Traffic) { tr.RetryAfter = -1 }},
		{"retry at the horizon", func(tr *Traffic) { tr.RetryAfter = horizon }},
		{"negative budget", func(tr *Traffic) { tr.MaxRetries = -1 }},
	}
	one := syntheticTimelines(1, cassandra.Interval{})
	for _, tc := range cases {
		tr := base
		tc.mut(&tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if _, _, _, err := SimulateTraffic(one, testWindow, tr); err == nil {
			t.Errorf("%s: SimulateTraffic accepted", tc.name)
		}
	}
	atCaps := base
	atCaps.Servers, atCaps.Tenants, atCaps.QPS = MaxServers, MaxTenants, 1e9
	if err := atCaps.Validate(); err != nil {
		t.Errorf("servers, tenants and rate at their caps rejected: %v", err)
	}
	if _, _, _, err := SimulateTraffic(nil, testWindow, base); err == nil {
		t.Error("no instances: accepted")
	}
	for _, window := range []memsim.Time{0, -1, horizon, math.MaxInt64} {
		if _, _, _, err := SimulateTraffic(one, window, base); err == nil {
			t.Errorf("window %d: accepted", window)
		}
	}
}

// TestHostileTimesAreReported replays parameters Validate accepts but
// whose times do not fit the virtual clock. A rate so small that the mean
// gap is +Inf must end the arrivals (it used to convert +Inf to a time and
// loop on a wrapped clock), and a service time that queues requests past
// the horizon must come back as an error, never as a series.
func TestHostileTimesAreReported(t *testing.T) {
	tls := syntheticTimelines(2, cassandra.Interval{Start: 10 * memsim.Millisecond, End: 18 * memsim.Millisecond})
	tr := testTraffic()
	tr.QPS = 5e-324
	perI, stats, _, err := SimulateTraffic(tls, testWindow, tr)
	if err != nil || stats.Requests != 0 || len(perI) != 2 {
		t.Errorf("denormal rate: %d requests in %d series, err %v; want an empty replay", stats.Requests, len(perI), err)
	}
	for _, service := range []memsim.Time{horizon - 1, horizon >> 4} {
		tr := testTraffic()
		tr.Service = service
		if err := tr.Validate(); err != nil {
			t.Fatalf("service %d rejected up front (%v); the case is about the replay", service, err)
		}
		if _, _, _, err := SimulateTraffic(tls, testWindow, tr); err == nil {
			t.Errorf("service %d: replay returned a series, want the horizon error", service)
		}
	}
}

// TestSimulateTrafficLeavesNoGoroutines: the draw producer is gone once
// SimulateTraffic returns — after a whole replay, after the horizon error
// the replay reports once its loop is done, and after a replay whose
// first arrival already falls outside the window.
func TestSimulateTrafficLeavesNoGoroutines(t *testing.T) {
	tls := syntheticTimelines(2, cassandra.Interval{Start: 10 * memsim.Millisecond, End: 18 * memsim.Millisecond})
	whole, pastHorizon, empty := testTraffic(), testTraffic(), testTraffic()
	pastHorizon.Service = horizon >> 4
	empty.QPS = 5e-324
	for _, c := range []struct {
		name, want string
		tr         Traffic
	}{{"whole replay", "requests", whole}, {"horizon error", "an error", pastHorizon}, {"no arrivals", "no requests", empty}} {
		before := runtime.NumGoroutine()
		_, stats, _, err := SimulateTraffic(tls, testWindow, c.tr)
		got := "requests"
		if err != nil {
			got = "an error"
		} else if stats.Requests == 0 {
			got = "no requests"
		}
		if got != c.want {
			t.Fatalf("%s: the replay returned %s (err %v), want %s", c.name, got, err, c.want)
		}
		// The producer signals before it exits, and no event marks the
		// exit itself: give it a moment to finish.
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: %d goroutines after the replay, %d before", c.name, after, before)
		}
	}
}

// nsSeries builds the sort's input: whole nanosecond counts held in
// float64, exactly as finalize appends them.
func nsSeries(ns []int64) []float64 {
	s := make([]float64, len(ns))
	for i, v := range ns {
		s[i] = float64(v)
	}
	return s
}

// TestSortToMsMatchesFloatSort holds the radix sort to its contract: the
// result is, bit for bit, what the replaced code computed — divide every
// latency into milliseconds, then sort.Float64s. Shapes: empty, one, two,
// all-equal, sorted, reversed, and seeded series of 10^5 whose maxima
// need one to six 11-bit digits (2^33 and up included, and 2^53 and up,
// where float64 no longer holds every nanosecond).
func TestSortToMsMatchesFloatSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 1))
	random := func(n int, limit int64) []int64 {
		ns := make([]int64, n)
		for i := range ns {
			ns[i] = rng.Int64N(limit)
		}
		return ns
	}
	sorted := random(1000, 1<<30)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	reversed := append([]int64(nil), sorted...)
	sort.Slice(reversed, func(i, j int) bool { return reversed[i] > reversed[j] })
	equal := make([]int64, 1000)
	for i := range equal {
		equal[i] = 61_234
	}
	cases := map[string][]int64{
		"empty": nil, "one": {48_211}, "two": {90_000, 48_211}, "two equal": {7, 7},
		"zeros": make([]int64, 100), "all equal": equal, "sorted": sorted, "reversed": reversed,
		"few distinct": random(100_000, 5),
	}
	for digits, limit := range []int64{1 << 11, 1 << 22, 1 << 33, 1 << 34, 1 << 44, 1 << 55, 1 << 62} {
		ns := random(100_000, limit)
		ns[len(ns)/2] = limit - 1 // the maximum really needs its digits
		cases[fmt.Sprintf("random below 2^%d", 11*(digits+1))] = ns
	}
	// Mostly short latencies under a few long ones: the replay's shape.
	mixed := random(100_000, 200_000)
	for i := 0; i < len(mixed); i += 997 {
		mixed[i] = 1<<33 + rng.Int64N(1<<33)
	}
	cases["short with long outliers"] = mixed

	longest := 0
	for _, ns := range cases {
		longest = max(longest, len(ns))
	}
	scratch := make([]float64, longest) // shared, as SimulateTraffic shares it
	for name, ns := range cases {
		want := nsSeries(ns)
		for i := range want {
			want[i] /= float64(memsim.Millisecond)
		}
		sort.Float64s(want)
		got := nsSeries(ns)
		sortToMs(got, scratch[:len(got)])
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s: element %d is %v (%#x), sort.Float64s of the divided values has %v (%#x)",
					name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				break
			}
		}
	}
}

// replayHash folds one replay's whole outcome — fleet summary, router
// stats, every request trace in finalization order — into an FNV-1a hash.
func replayHash(t *testing.T, tls []*cassandra.Timeline, tr Traffic) (uint64, Stats, []RequestTrace) {
	t.Helper()
	perI, stats, traces, err := SimulateTraffic(tls, testWindow, tr)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%+v|%+v", Summarize(MergeSorted(perI)), stats, traces)
	return h.Sum64(), stats, traces
}

// TestReplayOutcomePinned holds the replay loop to the exact outcome the
// push-every-arm implementation produced (hashes computed at commit
// 0927122, before primary arms were served in place): any change to
// event order, tie-breaks, or request bookkeeping moves a hash. The
// three shapes: primary arms only; a hedge delay below the shortest
// pause, so every request caught by a pause fans out; and a retry
// timeout shorter than the hedge delay, so a hedged request's deadline
// has already passed when its last arm lands and settle reissues at
// `now`, not in the past. Each shape replays with one and with two host
// cores, as the draws come from a producer goroutine, and the two
// request traces must be equal.
func TestReplayOutcomePinned(t *testing.T) {
	ms, us := memsim.Millisecond, memsim.Microsecond
	var tls []*cassandra.Timeline
	for _, ps := range [][]cassandra.Interval{
		{{Start: 6 * ms, End: 9 * ms}, {Start: 22 * ms, End: 30 * ms}},
		{{Start: 7 * ms, End: 12 * ms}},
		nil,
		{{Start: 25 * ms, End: 27 * ms}},
	} {
		tls = append(tls, cassandra.NewTimeline(ps))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sh := range []struct {
		name                   string
		hedgeAfter, retryAfter memsim.Time
		want                   uint64
	}{
		{"no hedging", 0, 0, 0x73e52a671f879a39},
		{"hedge-heavy", 300 * us, 0, 0x055939f185d81963},
		{"retry-heavy", 1500 * us, 400 * us, 0x827db4c72086548a},
	} {
		tr := testTraffic()
		tr.HedgeAfter, tr.RetryAfter, tr.MaxRetries = sh.hedgeAfter, sh.retryAfter, 3
		var stats Stats
		var traces []RequestTrace
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			got, st, tc := replayHash(t, tls, tr)
			if got != sh.want {
				t.Errorf("%s at GOMAXPROCS %d: outcome hash %#x, want %#x (stats %+v)", sh.name, procs, got, sh.want, st)
			}
			if traces != nil && !reflect.DeepEqual(tc, traces) {
				t.Errorf("%s: request traces differ between GOMAXPROCS 1 and %d", sh.name, procs)
			}
			stats, traces = st, tc
		}
		// A hedged request settles at t0+HedgeAfter; with the deadline
		// t0+RetryAfter already behind it, its retry is reissued at now.
		reissuedNow := int64(0)
		for _, tc := range traces {
			if tc.Hedged && tc.Retries > 0 {
				reissuedNow++
			}
		}
		var shaped bool
		switch sh.name {
		case "no hedging":
			shaped = stats.Hedged == 0 && stats.Retries == 0
		case "hedge-heavy":
			shaped = stats.Hedged*10 >= stats.Requests && stats.Retries == 0
		case "retry-heavy":
			shaped = reissuedNow > 0 && stats.Late > 0
		}
		if !shaped {
			t.Errorf("%s: lost its shape: stats %+v, %d requests reissued at now", sh.name, stats, reissuedNow)
		}
	}
}

// TestEventHeapPopsInSortedOrder is the typed heap's whole contract: for
// random pushes — few distinct arrival times, so most comparisons fall
// to seq — interleaved with pops, it yields exactly sort order of
// (at, seq).
func TestEventHeapPopsInSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	for round := 0; round < 200; round++ {
		n := 1 + rng.IntN(300)
		var h eventHeap
		var pushed, popped []event
		for i := 0; i < n; i++ {
			e := event{at: memsim.Time(rng.IntN(8)), seq: int64(i), arm: i}
			h.push(e)
			pushed = append(pushed, e)
			// Pop mid-stream now and then; what is popped early must be
			// the minimum of what is queued at that moment.
			if rng.IntN(4) == 0 {
				e := h.pop()
				for _, q := range h {
					if q.before(&e) {
						t.Fatalf("round %d: popped %+v with %+v still queued", round, e, q)
					}
				}
				h.push(e)
			}
		}
		for len(h) > 0 {
			popped = append(popped, h.pop())
		}
		sort.Slice(pushed, func(i, j int) bool {
			if pushed[i].at != pushed[j].at {
				return pushed[i].at < pushed[j].at
			}
			return pushed[i].seq < pushed[j].seq
		})
		if !reflect.DeepEqual(popped, pushed) {
			t.Fatalf("round %d (n=%d): pop order differs from sort order", round, n)
		}
	}
}

// TestSimulateTrafficAllocs bounds a replay's host allocations by what
// does not scale with its length: the per-instance series and their
// growth, one slab of server pools, the zipfian table, the draw slabs and
// their channels, the producer goroutine, the radix sort's one scratch
// buffer, the event heap's and free list's doublings, and one 256-record
// slab per 256 requests in flight at the peak (the pause's hedged
// backlog, ~1400 here) — nothing per request. Boxing events through
// container/heap cost three allocations a request (150 000 for the first
// window); the second window doubles the request count without adding a
// pause, and must cost no more than the first. The replay measures 60 or
// 61: the runtime caches goroutine descriptors and channel waiters per
// core, so the core the producer last ran on can cost one more.
func TestSimulateTrafficAllocs(t *testing.T) {
	tls := syntheticTimelines(4, cassandra.Interval{Start: 100 * memsim.Millisecond, End: 108 * memsim.Millisecond})
	tr := testTraffic()
	tr.Record = false
	tr.QPS = 250_000
	tr.HedgeAfter = 2 * memsim.Millisecond
	tr.RetryAfter = 2500 * memsim.Microsecond
	tr.MaxRetries = 2
	const bound, slack = 62, 2 // slack: a slice doubling or a per-core cache miss
	var first float64
	for i, window := range []memsim.Time{200 * memsim.Millisecond, 400 * memsim.Millisecond} {
		var stats Stats
		allocs := testing.AllocsPerRun(3, func() {
			var err error
			if _, stats, _, err = SimulateTraffic(tls, window, tr); err != nil {
				t.Fatal(err)
			}
		})
		want := int64(tr.QPS * float64(window) / float64(memsim.Second))
		if stats.Requests < want*9/10 || stats.Hedged == 0 || stats.Retries == 0 {
			t.Fatalf("window %d: %+v, want ~%d requests with hedges and retries", window, stats, want)
		}
		if i == 0 {
			first = allocs
		}
		if allocs > bound || allocs > first+slack {
			t.Errorf("%d requests cost %.0f allocations, want <= %d and <= %.0f (the shorter replay's) + %d",
				stats.Requests, allocs, bound, first, slack)
		}
	}
}
