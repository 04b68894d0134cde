package cassandra

import (
	"math"
	"math/rand/v2"
	"testing"

	"nvmgc/internal/memsim"
)

// randomPauses builds a deterministic non-overlapping pause timeline.
func randomPauses(rng *rand.Rand, n int) []Interval {
	out := make([]Interval, 0, n)
	t := memsim.Time(0)
	for i := 0; i < n; i++ {
		t += memsim.Time(1 + rng.IntN(5_000_000))
		d := memsim.Time(1 + rng.IntN(2_000_000))
		out = append(out, Interval{Start: t, End: t + d})
		t += d
	}
	// Hand the constructor a shuffled copy: NewTimeline sorts.
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestTimelineActiveBruteForce pins Active against the definition:
// active time at t is t minus the pause time that elapsed before t.
func TestTimelineActiveBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 1))
	for trial := 0; trial < 50; trial++ {
		ps := randomPauses(rng, rng.IntN(8))
		tl := NewTimeline(ps)
		for probe := 0; probe < 200; probe++ {
			x := memsim.Time(rng.Int64N(60_000_000))
			var paused memsim.Time
			for _, p := range ps {
				if x >= p.End {
					paused += p.End - p.Start
				} else if x > p.Start {
					paused += x - p.Start
				}
			}
			if got, want := tl.Active(x), x-paused; got != want {
				t.Fatalf("trial %d: Active(%d) = %d, brute force %d", trial, x, got, want)
			}
		}
	}
}

// TestTimelineInverseRoundTrip checks Inverse is the right inverse of
// Active on points outside pauses (inside a pause no active time
// accrues, so Active is not injective there), and that Active∘Inverse
// is the identity on all of active time.
func TestTimelineInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 1))
	for trial := 0; trial < 50; trial++ {
		ps := randomPauses(rng, 1+rng.IntN(8))
		tl := NewTimeline(ps)
		for probe := 0; probe < 200; probe++ {
			a := memsim.Time(rng.Int64N(50_000_000))
			w := tl.Inverse(a)
			if got := tl.Active(w); got != a {
				t.Fatalf("trial %d: Active(Inverse(%d)) = %d", trial, a, got)
			}
			// The completion instant must not land strictly inside a pause.
			for _, p := range ps {
				if w > p.Start && w < p.End {
					t.Fatalf("trial %d: Inverse(%d) = %d lands inside pause [%d, %d)", trial, a, w, p.Start, p.End)
				}
			}
		}
		if got, want := tl.PauseTime(), totalPause(ps); got != want {
			t.Fatalf("trial %d: PauseTime %d, want %d", trial, got, want)
		}
	}
}

func totalPause(ps []Interval) memsim.Time {
	var tot memsim.Time
	for _, p := range ps {
		tot += p.End - p.Start
	}
	return tot
}

// TestTimelineMatchesLatencies guards the refactor that carved Timeline
// out of Latencies: both paths must produce identical latency series.
func TestTimelineMatchesLatencies(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 1))
	ps := randomPauses(rng, 5)
	window := 40 * memsim.Millisecond
	got := Latencies(ps, window, 80_000, 60*memsim.Microsecond, 8, 21)
	if len(got) == 0 {
		t.Fatal("no latencies produced")
	}
	// Replay the same queue by hand through the Timeline methods.
	tl := NewTimeline(ps)
	r := rand.New(rand.NewPCG(21, 0xDA7A))
	meanGap := float64(memsim.Second) / 80_000
	service := 60 * memsim.Microsecond
	free := make([]memsim.Time, 8)
	var want []float64
	for x := memsim.Time(r.ExpFloat64() * meanGap); x < window; x += memsim.Time(r.ExpFloat64()*meanGap) + 1 {
		best := 0
		for i := 1; i < len(free); i++ {
			if free[i] < free[best] {
				best = i
			}
		}
		start := tl.Active(x)
		if free[best] > start {
			start = free[best]
		}
		svc := memsim.Time(r.ExpFloat64() * float64(service))
		if svc < service/8 {
			svc = service / 8
		}
		free[best] = start + svc
		want = append(want, float64(tl.Inverse(start+svc)-x)/float64(memsim.Millisecond))
	}
	if len(got) != len(want) {
		t.Fatalf("Latencies produced %d samples, replay %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sample %d: Latencies %v, Timeline replay %v", i, got[i], want[i])
		}
	}
}

// TestValidateTailPercentiles exercises the p999/p9999 extension: the
// populated path must reject inversions, and legacy results with zero
// tails must still pass.
func TestValidateTailPercentiles(t *testing.T) {
	ok := []StressResult{{P95ms: 1, P99ms: 2, P999ms: 3, P9999ms: 4}}
	if err := Validate(ok); err != nil {
		t.Fatalf("ordered tails rejected: %v", err)
	}
	legacy := []StressResult{{P95ms: 1, P99ms: 2}}
	if err := Validate(legacy); err != nil {
		t.Fatalf("legacy zero-tail result rejected: %v", err)
	}
	if Validate([]StressResult{{P95ms: 1, P99ms: 2, P999ms: 1.5}}) == nil {
		t.Fatal("p999 below p99 accepted")
	}
	if Validate([]StressResult{{P95ms: 1, P99ms: 2, P999ms: 3, P9999ms: 2.5}}) == nil {
		t.Fatal("p9999 below p999 accepted")
	}
}

// earliestFreeScan is the compare-and-jump scan EarliestFree replaced,
// kept as its reference.
func earliestFreeScan(free []memsim.Time) int {
	best := 0
	for i := 1; i < len(free); i++ {
		if free[i] < free[best] {
			best = i
		}
	}
	return best
}

// TestEarliestFreeMatchesScan checks the packed-key minimum against the
// plain scan at every pool size from 1 to 64 and at the two sizes around
// MaxServers: on random times, on tie-heavy times (the lowest index must
// win), on the all-equal pool every replay starts from, and on the inputs
// a key cannot hold — negative times, times at and past 2^55 — which
// must still come out exact. It also evolves a pool the way Latencies
// does and compares every pick, so a wrong tie-break could not hide.
func TestEarliestFreeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 3))
	check := func(what string, free []memsim.Time) {
		t.Helper()
		if got, want := EarliestFree(free), earliestFreeScan(free); got != want {
			t.Fatalf("%s, %d servers: EarliestFree %d, scan %d (%v)", what, len(free), got, want, free)
		}
	}
	sizes := []int{MaxServers - 1, MaxServers, MaxServers + 1, 3 * MaxServers}
	for n := 1; n <= 64; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		free := make([]memsim.Time, n)
		check("all zero", free)
		for round := 0; round < 50; round++ {
			for i := range free {
				free[i] = rng.Int64N(1 << 40)
			}
			check("random", free)
			for i := range free {
				free[i] = 1000 + rng.Int64N(3)
			}
			check("tie-heavy", free)
			free[rng.IntN(n)] = 1<<freeTimeBits - 1
			check("largest time a key holds", free)
			free[rng.IntN(n)] = 1 << freeTimeBits
			check("first time a key cannot hold", free)
			free[rng.IntN(n)] = -1 - rng.Int64N(1<<40)
			check("negative", free)
			free[rng.IntN(n)] = math.MaxInt64
			free[rng.IntN(n)] = math.MinInt64
			check("int64 extremes", free)
		}
		// A pool in use: the pick takes the next request, as in Latencies.
		clear(free)
		shadow := make([]memsim.Time, n)
		now := memsim.Time(0)
		for step := 0; step < 2000; step++ {
			now += rng.Int64N(4000)
			k, want := EarliestFree(free), earliestFreeScan(shadow)
			if k != want {
				t.Fatalf("pool of %d, step %d: EarliestFree %d, scan %d", n, step, k, want)
			}
			finish := max(free[k], now) + 7500*(1+rng.Int64N(3)) // few distinct service times: ties recur
			free[k], shadow[k] = finish, finish
		}
	}
}
