package cassandra

import (
	"testing"

	"nvmgc/internal/gc"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
	"nvmgc/internal/workload"
)

func newServer(t *testing.T, opt gc.Options) gc.Collector {
	t.Helper()
	mc := memsim.DefaultConfig()
	mc.LLCBytes = 1 << 20
	m := memsim.NewMachine(mc)
	hc := heap.DefaultConfig()
	hc.RegionBytes = 32 << 10
	hc.HeapRegions = 512
	hc.CacheRegions = 64
	hc.EdenRegions = 96
	hc.SurvivorRegions = 48
	h, err := heap.New(m, hc)
	if err != nil {
		t.Fatal(err)
	}
	col, err := gc.NewG1(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func TestPauseIntervalsFromMarks(t *testing.T) {
	m := memsim.NewMachine(memsim.DefaultConfig())
	m.Mark("gc-start")
	m.Run(1, func(w *memsim.Worker) { w.Advance(1000) })
	m.Mark("gc-end")
	m.Run(1, func(w *memsim.Worker) { w.Advance(500) })
	m.Mark("gc-start")
	m.Run(1, func(w *memsim.Worker) { w.Advance(2000) })
	m.Mark("gc-end")
	ps := PauseIntervals(m, 0, m.Now())
	if len(ps) != 2 {
		t.Fatalf("got %d intervals", len(ps))
	}
	if ps[0].End-ps[0].Start != 1000 || ps[1].End-ps[1].Start != 2000 {
		t.Fatalf("intervals %+v", ps)
	}
	// Window excluding the first pause.
	ps = PauseIntervals(m, 1200, m.Now())
	if len(ps) != 1 {
		t.Fatalf("windowed: %+v", ps)
	}
}

func TestLatenciesNoPausesLowLoad(t *testing.T) {
	lat := Latencies(nil, memsim.Second, 10_000, 50*memsim.Microsecond, 16, 1)
	if len(lat) < 5000 {
		t.Fatalf("too few requests: %d", len(lat))
	}
	for _, l := range lat {
		if l < 0 {
			t.Fatal("negative latency")
		}
	}
	// Without pauses and at low utilization, p99 should stay near the
	// service time (well under 1ms).
	var over float64
	for _, l := range lat {
		if l > 1.0 {
			over++
		}
	}
	if over/float64(len(lat)) > 0.01 {
		t.Fatalf("unloaded system shows heavy tail: %f over 1ms", over/float64(len(lat)))
	}
}

func TestPausesInflateTail(t *testing.T) {
	window := memsim.Second
	pauses := []Interval{
		{Start: 100 * memsim.Millisecond, End: 140 * memsim.Millisecond},
		{Start: 500 * memsim.Millisecond, End: 560 * memsim.Millisecond},
	}
	base := Latencies(nil, window, 50_000, 50*memsim.Microsecond, 16, 7)
	paused := Latencies(pauses, window, 50_000, 50*memsim.Microsecond, 16, 7)
	p99base := summaryP99(base)
	p99paused := summaryP99(paused)
	if p99paused <= p99base*2 {
		t.Fatalf("pauses should inflate p99: %g vs %g", p99paused, p99base)
	}
	// A request arriving mid-pause waits at least the remaining pause:
	// the max latency must reach the longest pause scale.
	var maxLat float64
	for _, l := range paused {
		if l > maxLat {
			maxLat = l
		}
	}
	if maxLat < 40 {
		t.Fatalf("max latency %g ms below pause duration", maxLat)
	}
}

func summaryP99(lat []float64) float64 {
	cp := append([]float64(nil), lat...)
	n := len(cp)
	if n == 0 {
		return 0
	}
	// crude p99 for test purposes
	max := 0.0
	count := 0
	for {
		idx := -1
		for i, v := range cp {
			if idx < 0 || v > cp[idx] {
				idx = i
			}
			_ = i
			_ = v
		}
		max = cp[idx]
		cp[idx] = -1
		count++
		if count >= n/100+1 {
			return max
		}
	}
}

func TestStressCurveShape(t *testing.T) {
	pauses := []Interval{{Start: 200 * memsim.Millisecond, End: 230 * memsim.Millisecond}}
	phase := ReadPhase()
	rs := Stress(pauses, memsim.Second, phase, []float64{10, 50, 130}, 3)
	if err := Validate(rs); err != nil {
		t.Fatal(err)
	}
	if rs[0].Requests >= rs[2].Requests {
		t.Fatal("higher throughput should produce more requests")
	}
	// Latency should not improve as load rises.
	if rs[2].P99ms < rs[0].P99ms*0.5 {
		t.Fatalf("p99 fell sharply with load: %+v", rs)
	}
}

func TestRunPhaseEndToEnd(t *testing.T) {
	col := newServer(t, gc.Vanilla())
	pauses, window, err := RunPhase(col, WritePhase(), workload.Config{GCThreads: 8, Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pauses) == 0 {
		t.Fatal("no GC pauses recorded")
	}
	if window <= 0 {
		t.Fatal("empty window")
	}
	for _, p := range pauses {
		if p.End <= p.Start {
			t.Fatalf("bad interval %+v", p)
		}
	}
}

func TestOptimizedGCImprovesTail(t *testing.T) {
	curve := func(opt gc.Options) []StressResult {
		col := newServer(t, opt)
		pauses, window, err := RunPhase(col, WritePhase(), workload.Config{GCThreads: 16, Scale: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		return Stress(pauses, window, WritePhase(), []float64{80}, 11)
	}
	v := curve(gc.Vanilla())
	o := curve(gc.Optimized())
	if o[0].P99ms >= v[0].P99ms {
		t.Fatalf("optimized p99 %.3f should beat vanilla %.3f", o[0].P99ms, v[0].P99ms)
	}
}

func TestPhaseProfilesValid(t *testing.T) {
	for _, ph := range []Phase{WritePhase(), ReadPhase()} {
		spec, err := workload.ScenarioByName(ph.Scenario)
		if err != nil || ph.Service <= 0 || ph.Servers < 1 || spec.Profile == nil {
			t.Fatalf("phase %q malformed: %v", ph.Name, err)
		}
	}
}

func TestLatenciesDeterministicAtFixedSeed(t *testing.T) {
	pauses := []Interval{{Start: 100 * memsim.Millisecond, End: 130 * memsim.Millisecond}}
	a := Latencies(pauses, memsim.Second, 40_000, 50*memsim.Microsecond, 16, 42)
	b := Latencies(pauses, memsim.Second, 40_000, 50*memsim.Microsecond, 16, 42)
	if len(a) != len(b) {
		t.Fatalf("request counts diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("latency %d diverged: %g vs %g", i, a[i], b[i])
		}
	}
	c := Latencies(pauses, memsim.Second, 40_000, 50*memsim.Microsecond, 16, 43)
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds produced identical request streams")
	}
}

func TestRunPhaseDeterministicAtFixedSeed(t *testing.T) {
	run := func() ([]Interval, memsim.Time) {
		col := newServer(t, gc.Optimized())
		pauses, window, err := RunPhase(col, WritePhase(), workload.Config{GCThreads: 8, Scale: 0.3, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return pauses, window
	}
	pA, wA := run()
	pB, wB := run()
	if wA != wB || len(pA) != len(pB) {
		t.Fatalf("runs diverged: window %d/%d, %d/%d pauses", wA, wB, len(pA), len(pB))
	}
	for i := range pA {
		if pA[i] != pB[i] {
			t.Fatalf("pause %d diverged: %+v vs %+v", i, pA[i], pB[i])
		}
	}
}

func TestStressPercentilesMonotonic(t *testing.T) {
	col := newServer(t, gc.Vanilla())
	pauses, window, err := RunPhase(col, WritePhase(), workload.Config{GCThreads: 8, Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	rs := Stress(pauses, window, WritePhase(), []float64{20, 60, 100}, 9)
	if err := Validate(rs); err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.MeanMs > r.P95ms || r.P95ms > r.P99ms {
			t.Fatalf("percentiles out of order at %0.0f kqps: mean %.3f p95 %.3f p99 %.3f",
				r.ThroughputKQPS, r.MeanMs, r.P95ms, r.P99ms)
		}
		if r.Requests == 0 {
			t.Fatalf("no requests at %0.0f kqps", r.ThroughputKQPS)
		}
	}
	if bad := []StressResult{{P95ms: 2, P99ms: 1}}; Validate(bad) == nil {
		t.Fatal("inverted percentiles not rejected")
	}
}

// TestRunPhaseScenarioDriven drives a YCSB core mix — not a canned
// cassandra profile — through the full phase path: the registry is the
// single scenario source for every consumer, and an unknown name is an
// error, not a panic.
func TestRunPhaseScenarioDriven(t *testing.T) {
	ph := Phase{Name: "ycsb", Scenario: "ycsb-a", Service: 50 * memsim.Microsecond, Servers: 8}
	if spec, err := workload.ScenarioByName(ph.Scenario); err != nil || spec.Core == nil {
		t.Fatalf("ycsb phase should be core-backed: %+v, %v", spec, err)
	}
	col := newServer(t, gc.Vanilla())
	pauses, window, err := RunPhase(col, ph, workload.Config{GCThreads: 8, Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if window <= 0 || len(pauses) == 0 {
		t.Fatalf("update-heavy mix should pause: window %d, %d pauses", window, len(pauses))
	}
	rs := Stress(pauses, window, ph, []float64{40}, 13)
	if err := Validate(rs); err != nil {
		t.Fatal(err)
	}
	bad := Phase{Name: "bad", Scenario: "ycsb-z", Service: 50 * memsim.Microsecond, Servers: 8}
	if _, _, err := RunPhase(newServer(t, gc.Vanilla()), bad, workload.Config{GCThreads: 8}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestLatenciesEdgeCases(t *testing.T) {
	if Latencies(nil, 0, 1000, 100, 4, 1) != nil {
		t.Fatal("zero window should be empty")
	}
	if Latencies(nil, memsim.Second, 0, 100, 4, 1) != nil {
		t.Fatal("zero throughput should be empty")
	}
	if Latencies(nil, memsim.Second, 1000, 100, 0, 1) != nil {
		t.Fatal("zero servers should be empty")
	}
}
