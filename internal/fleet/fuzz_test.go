package fleet

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"nvmgc/internal/cassandra"
	"nvmgc/internal/memsim"
)

// FuzzMergeSorted draws series from fuzzed shapes — up to MaxInstances+1
// groups, up to 2^17 values, a palette of `distinct` integers (ties), and
// flag bits for both zeros, the clamped NaN pair, one dominant group and
// empty groups — and holds MergeSorted to the stable sort of the
// concatenation, bit for bit.
func FuzzMergeSorted(f *testing.F) {
	f.Add(uint64(1), uint16(8), uint32(1<<16), uint16(1000), uint8(0))
	f.Add(uint64(2), uint16(MaxInstances), uint32(1<<16+1), uint16(3), uint8(0b1111))
	f.Add(uint64(3), uint16(0), uint32(5), uint16(0), uint8(0b0010))
	f.Fuzz(func(t *testing.T, seed uint64, k uint16, n uint32, distinct uint16, flags uint8) {
		rng := rand.New(rand.NewPCG(seed, 0x4E26E))
		palette := 1 + int(distinct)
		draw := func() float64 {
			switch r := rng.IntN(16); {
			case flags&1 != 0 && r == 0:
				return math.Copysign(0, -1)
			case flags&1 != 0 && r == 1:
				return 0
			case flags&2 != 0 && r == 2:
				return math.Float64frombits(clampedNaN - uint64(rng.IntN(2)))
			}
			return float64(rng.IntN(palette) - palette/2)
		}
		groups := mergeGroups(rng, 1+int(k)%(MaxInstances+1), int(n%(1<<17)), flags&4 != 0, flags&8 != 0, draw)
		checkMerge(t, "fuzzed", groups)
	})
}

// fuzzTimelines derives a small fleet from a seed: one to four instances,
// each with up to three pauses of 0.2-3 ms inside a 20 ms window.
func fuzzTimelines(seed uint64) []*cassandra.Timeline {
	rng := rand.New(rand.NewPCG(seed, 0xF1EE7))
	tls := make([]*cassandra.Timeline, 1+rng.IntN(4))
	for i := range tls {
		ps := make([]cassandra.Interval, 0, rng.IntN(4))
		for t := memsim.Time(0); len(ps) < cap(ps); {
			t += memsim.Time(1+rng.IntN(5000)) * memsim.Microsecond
			d := memsim.Time(200+rng.IntN(2800)) * memsim.Microsecond
			ps = append(ps, cassandra.Interval{Start: t, End: t + d})
			t += d
		}
		tls[i] = cassandra.NewTimeline(ps)
	}
	return tls
}

// FuzzSimulateTraffic replays fuzzed traffic parameters over a small
// seeded fleet. Parameters Validate rejects must be refused by
// SimulateTraffic as well; parameters it accepts must never panic, and
// must either report that virtual time left its horizon or return a
// replay that is whole: one commit per request, every per-instance series
// ascending, the series' lengths summing to the request count, and
// MergeSorted of them bit-equal to sorting their concatenation.
//
// A replay's length is a parameter too (QPS x window arrivals, each with
// up to 2+MaxRetries arms), so the harness bounds it where that takes no
// case away: the window shrinks until it holds about two thousand
// arrivals, and a retry budget past 16 is skipped — slow, not wrong.
func FuzzSimulateTraffic(f *testing.F) {
	const us = int64(memsim.Microsecond)
	f.Add(50_000.0, 0.99, 60*us, int64(4), int64(64), int64(0), int64(0), int64(0), uint64(7))
	f.Add(250_000.0, 0.99, 60*us, int64(16), int64(256), 300*us, int64(0), int64(0), uint64(1))
	f.Add(120_000.0, 0.5, 45*us, int64(2), int64(3), 1500*us, 400*us, int64(3), uint64(2))
	f.Add(90_000.0, 0.01, int64(1), int64(1), int64(1), int64(1), int64(1), int64(16), uint64(3))
	// testdata/fuzz/FuzzSimulateTraffic holds the hostile seeds: the pool
	// size and tenant count Validate used to let through, rates and skews
	// that are NaN or Inf, rates at both ends of the float range, and
	// times near the int64 range.

	f.Fuzz(func(t *testing.T, qps, theta float64, service, servers, tenants, hedge, retry, retries int64, seed uint64) {
		tr := Traffic{
			QPS: qps, Service: service, Servers: int(servers),
			Tenants: tenants, Theta: theta,
			HedgeAfter: hedge, RetryAfter: retry, MaxRetries: int(retries),
			Seed: seed,
		}
		tls := fuzzTimelines(seed)
		window := 20 * memsim.Millisecond
		if tr.Validate() != nil {
			if _, _, _, err := SimulateTraffic(tls, window, tr); err == nil {
				t.Fatalf("SimulateTraffic accepted what Validate rejects: %+v", tr)
			}
			return
		}
		if tr.MaxRetries > 16 {
			t.Skip("retry budget beyond the harness's work bound")
		}
		if w := 2000 / qps * float64(memsim.Second); w < float64(window) {
			window = max(memsim.Time(w), 1)
		}
		perI, stats, _, err := SimulateTraffic(tls, window, tr)
		if err != nil {
			return // virtual time left the horizon: reported, which is the contract
		}
		if stats.Commits != stats.Requests {
			t.Fatalf("%d commits for %d requests", stats.Commits, stats.Requests)
		}
		var all []float64
		for i, s := range perI {
			if !sort.Float64sAreSorted(s) {
				t.Fatalf("instance %d series is not ascending", i)
			}
			all = append(all, s...)
		}
		if int64(len(all)) != stats.Requests {
			t.Fatalf("%d latencies for %d requests", len(all), stats.Requests)
		}
		sort.Float64s(all)
		merged := MergeSorted(perI)
		if len(merged) != len(all) {
			t.Fatalf("merged %d latencies of %d", len(merged), len(all))
		}
		for i := range all {
			if math.Float64bits(merged[i]) != math.Float64bits(all[i]) {
				t.Fatalf("merged[%d] = %v, sorted concatenation has %v", i, merged[i], all[i])
			}
		}
	})
}
