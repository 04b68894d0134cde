package bench

import (
	"reflect"
	"testing"

	"nvmgc/internal/gc"
	"nvmgc/internal/workload"
)

// TestGoldenHarnessDeterminism is the harness-level half of the golden
// determinism guarantee (the scheduler-level half lives in
// internal/memsim/sched_test.go): a full figure, rendered through the
// parallel fan-out at several pool widths and under the reference
// eager-yield scheduler, must be byte-identical to the serial run. Fig5
// exercises the young-GC cycle across four collector configs plus the
// DRAM reference, so any virtual-time, CollectionStats or cache-counter
// divergence shows up in the rendered table. Under -short (the race
// gate) the workload shrinks and the case list drops to the two
// highest-leverage combinations instead of skipping.
func TestGoldenHarnessDeterminism(t *testing.T) {
	scale := 0.1
	if testing.Short() {
		scale = 0.05
	}
	params := func(parallel int, eager bool) Params {
		return Params{Scale: scale, Quick: true, Seed: 1, Parallel: parallel, EagerYield: eager}
	}
	ref, err := Fig5(params(1, false))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Render()

	cases := []struct {
		name string
		p    Params
	}{
		{"parallel-8", params(8, false)},
		{"eager-parallel-8", params(8, true)},
	}
	if !testing.Short() {
		cases = append(cases,
			struct {
				name string
				p    Params
			}{"parallel-2", params(2, false)},
			struct {
				name string
				p    Params
			}{"parallel-0-numcpu", params(0, false)},
			struct {
				name string
				p    Params
			}{"eager-serial", params(1, true)},
		)
	}
	for _, tc := range cases {
		rep, err := Fig5(tc.p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := rep.Render(); got != want {
			t.Errorf("%s: rendered output diverged from serial reference\nserial:\n%s\ngot:\n%s", tc.name, want, got)
		}
	}
}

// TestGoldenWorkloadSweepDeterminism pins the scenario-engine sweep the
// same way: the rendered collector-config × YCSB grid must be
// byte-identical at any pool width and under the eager-yield reference
// scheduler (the keyed op streams are pure functions of the seed, and
// every grid point owns its Machine).
func TestGoldenWorkloadSweepDeterminism(t *testing.T) {
	scale := 0.1
	if testing.Short() {
		scale = 0.05
	}
	params := func(parallel int, eager bool) Params {
		return Params{Scale: scale, Quick: true, Seed: 1, Parallel: parallel, EagerYield: eager}
	}
	ref, err := WorkloadSweep(params(1, false))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Render()
	cases := []struct {
		name string
		p    Params
	}{
		{"parallel-8", params(8, false)},
		{"eager-parallel-8", params(8, true)},
	}
	if !testing.Short() {
		cases = append(cases, struct {
			name string
			p    Params
		}{"parallel-0-numcpu", params(0, false)})
	}
	for _, tc := range cases {
		rep, err := WorkloadSweep(tc.p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := rep.Render(); got != want {
			t.Errorf("%s: rendered output diverged from serial reference\nserial:\n%s\ngot:\n%s", tc.name, want, got)
		}
	}
}

// TestWorkloadSweepCoversYCSBMixes: the quick sweep keeps the full
// scenario axis, so its rows cover every YCSB core mix A–F with both
// zipfian and hotspot request skews among them.
func TestWorkloadSweepCoversYCSBMixes(t *testing.T) {
	rep, err := WorkloadSweep(Params{Scale: 0.05, Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	scenarios, dists := map[string]bool{}, map[string]bool{}
	for _, tbl := range rep.Tables {
		for _, row := range tbl.Rows {
			scenarios[row[0]], dists[row[1]] = true, true
		}
	}
	for _, want := range []string{"ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f"} {
		if !scenarios[want] {
			t.Errorf("quick workload-sweep misses scenario %s (has %v)", want, scenarios)
		}
	}
	for _, want := range []string{"zipfian", "hotspot"} {
		if !dists[want] {
			t.Errorf("quick workload-sweep misses %s-skewed rows (has %v)", want, dists)
		}
	}
}

// TestGoldenCollectionStats drills below the rendered table: the full
// CollectionStats sequence and LLC counters of a run must be identical
// between the horizon scheduler and the eager reference at several GC
// thread counts.
func TestGoldenCollectionStats(t *testing.T) {
	threadCounts := []int{1, 2, 8, 16}
	scale := 0.1
	if testing.Short() {
		threadCounts = []int{2, 16}
		scale = 0.05
	}
	app, err := workload.ScenarioByName(defaultQuickApps[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range threadCounts {
		spec := runSpec{app: app, host: Params{}.host(gc.Vanilla()), threads: th, scale: scale, seed: 1}
		host1, res1, err := runHost(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.host = Params{EagerYield: true}.host(gc.Vanilla())
		host2, res2, err := runHost(spec)
		if err != nil {
			t.Fatal(err)
		}
		m1, m2 := host1.M, host2.M
		if m1.Now() != m2.Now() {
			t.Fatalf("threads=%d: virtual clock diverged: %d vs %d", th, m1.Now(), m2.Now())
		}
		if res1.Total != res2.Total || res1.GC != res2.GC || res1.App != res2.App {
			t.Fatalf("threads=%d: result times diverged: %+v vs %+v", th, res1, res2)
		}
		if len(res1.Collections) != len(res2.Collections) {
			t.Fatalf("threads=%d: collection counts diverged: %d vs %d",
				th, len(res1.Collections), len(res2.Collections))
		}
		for i := range res1.Collections {
			// DeepEqual, not ==: the per-tier breakdown makes
			// CollectionStats non-comparable, and the comparison must cover
			// it anyway.
			if !reflect.DeepEqual(res1.Collections[i], res2.Collections[i]) {
				t.Fatalf("threads=%d: collection %d diverged:\n%+v\n%+v",
					th, i, res1.Collections[i], res2.Collections[i])
			}
		}
		if m1.LLC.Stats() != m2.LLC.Stats() {
			t.Fatalf("threads=%d: LLC counters diverged: %+v vs %+v",
				th, m1.LLC.Stats(), m2.LLC.Stats())
		}
	}
}
