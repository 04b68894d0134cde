package cassandra

import (
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

// TestTimelineNormalizes holds the transform to a per-nanosecond count
// on small random pause sets that overlap, nest, touch, repeat, and
// include empty and inverted intervals: Active(x) is the number of
// unpaused nanoseconds before x, Inverse(a) the unpaused nanosecond at
// which that count reaches a, and PauseTime the size of the union.
// Summing overlapping durations used to drive Active negative.
func TestTimelineNormalizes(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 1))
	const span = 48
	for trial := 0; trial < 5000; trial++ {
		ps := make([]Interval, rng.IntN(7))
		var paused [span + 8]bool
		for i := range ps {
			s := memsim.Time(rng.IntN(span - 12))
			ps[i] = Interval{Start: s, End: s + memsim.Time(rng.IntN(17)-4)}
			for x := ps[i].Start; x < ps[i].End; x++ {
				paused[x] = true
			}
		}
		tl := NewTimeline(ps)
		var active, total memsim.Time
		for x := range memsim.Time(len(paused)) {
			if got := tl.Active(x); got != active {
				t.Fatalf("%v: Active(%d) = %d, count %d", ps, x, got, active)
			}
			if paused[x] {
				total++
				continue
			}
			if got := tl.Inverse(active); got != x {
				t.Fatalf("%v: Inverse(%d) = %d, count reaches it at %d", ps, active, got, x)
			}
			active++
		}
		if got := tl.PauseTime(); got != total {
			t.Fatalf("%v: PauseTime %d, union %d", ps, got, total)
		}
	}
}
