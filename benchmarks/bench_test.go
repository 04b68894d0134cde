package main

import (
	"math"
	"reflect"
	"regexp"
	"testing"

	"nvmgc/internal/fleet"
	"nvmgc/internal/gc"
	"nvmgc/internal/memsim"
)

const specPath = "../BENCHMARK.json"

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every kernel and the suite sample, then every workload
// untraced and traced, all at a twentieth of the benchmark's size, and
// checks that every metric BENCHMARK.json declares comes out finite and
// with its unit. measure itself refuses a metric it computed that the
// file does not declare.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := sharedLayers(7, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, declared := range spec.Workloads {
		w, ok := workloadByName(declared.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json declares workload %q, which the benchmark does not have", declared.Name)
		}
		for _, traced := range []bool{false, true} {
			rec, err := measure(w, spec, runOptions{seed: 7, traced: traced, size: 0.05, quick: true, shared: shared})
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					w.name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.name, traced, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rec.Metrics[m.Name]
				if !ok || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Unit != m.Unit || got.Unit == "" {
					t.Errorf("%s traced=%v: metric %s = %+v, want a finite value in %q", w.name, traced, m.Name, got, m.Unit)
				}
				if !nameRE.MatchString(m.Name) {
					t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
				}
			}
		}
	}
}

// TestTimedCollectorForwardsMixed: the runners find CollectMixed by type
// assertion, so the timing wrapper must forward it. Wrapped and unwrapped,
// the mixed-GC matrix point must produce the same virtual outcome, with
// mixed collections in it.
func TestTimedCollectorForwardsMixed(t *testing.T) {
	var point simPoint
	for _, p := range matrixPoints {
		if p.mixedEvery > 0 {
			point = p
		}
	}
	if point.name == "" {
		t.Fatal("the matrix has no mixed-GC point")
	}
	bare, err := runPoint(point, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder("test")
	wrapped, err := runPoint(point, 1, 1, rec)
	if err != nil {
		t.Fatal(err)
	}
	if bare.print != wrapped.print {
		t.Errorf("fingerprint %s unwrapped, %s wrapped", bare.print, wrapped.print)
	}
	mixed := 0
	for _, c := range wrapped.virt.Collections {
		if c.Mixed {
			mixed++
		}
	}
	if mixed == 0 || rec.total("gc.CollectMixed") == 0 {
		t.Errorf("%d mixed collections in the result, %v spent in gc.CollectMixed spans; want both non-zero",
			mixed, rec.total("gc.CollectMixed"))
	}
	if len(wrapped.collectNs) != len(wrapped.virt.Collections) {
		t.Errorf("%d collections timed, %d in the result", len(wrapped.collectNs), len(wrapped.virt.Collections))
	}
}

// flipLeaves changes every scalar reachable from v, one at a time, and
// calls check with the field's path while it is changed.
func flipLeaves(v reflect.Value, path string, check func(path string)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			flipLeaves(v.Field(i), path+"."+v.Type().Field(i).Name, check)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			flipLeaves(v.Index(i), path+"[]", check)
		}
	case reflect.Int64, reflect.Int:
		old := v.Int()
		v.SetInt(old + 1)
		check(path)
		v.SetInt(old)
	case reflect.Float64:
		old := v.Float()
		v.SetFloat(old + 0.5)
		check(path)
		v.SetFloat(old)
	case reflect.Bool:
		v.SetBool(!v.Bool())
		check(path)
		v.SetBool(!v.Bool())
	case reflect.String:
		old := v.String()
		v.SetString(old + "x")
		check(path)
		v.SetString(old)
	}
}

// TestFingerprintCoversEveryField flips each counter the fingerprints
// are specified to cover — in fact each scalar of the hashed structs —
// and requires the hash to change.
func TestFingerprintCoversEveryField(t *testing.T) {
	sim := simVirtual{
		Total: 100, GC: 30, Allocated: 4096, Ops: 7,
		Collections: []gc.CollectionStats{{
			Pause: 30, ReadMostly: 20, WriteOnly: 8, Cleanup: 2, ObjectsCopied: 5, BytesCopied: 240,
			Tiers: []gc.TierTraffic{{Name: "nvm", Persistent: true, Stats: memsim.DeviceStats{ReadBytes: 1}}},
		}},
		Tiers: []gc.TierTraffic{{Name: "dram"}, {Name: "nvm", Persistent: true, Stats: memsim.DeviceStats{ReadOps: 3, WriteOps: 4}}},
		LLC:   memsim.CacheStats{Hits: 9, Misses: 1},
	}
	serve := fleetVirtual{Summary: fleet.Summary{Requests: 10, P999ms: 2.5}, Stats: fleet.Stats{Requests: 10, Commits: 10}}

	for _, c := range []struct {
		name  string
		value any // pointer to the hashed struct
		hash  func() string
	}{
		{"simVirtual", &sim, func() string { return hashOf(sim) }},
		{"fleetVirtual", &serve, func() string { return hashOf(serve) }},
	} {
		base, fields := c.hash(), 0
		flipLeaves(reflect.ValueOf(c.value).Elem(), c.name, func(path string) {
			fields++
			if c.hash() == base {
				t.Errorf("changing %s leaves the fingerprint unchanged", path)
			}
		})
		if c.hash() != base {
			t.Errorf("%s: fingerprint not restored after the flips", c.name)
		}
		t.Logf("%s: %d fields covered", c.name, fields)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of 1, 2 = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

// TestCompare judges synthetic run sets: a tie, a clear win, a
// regression, a parent too noisy to resolve, and virtual drift.
func TestCompare(t *testing.T) {
	spec := &benchSpec{Workloads: []workloadSpec{{Name: "w"}}, EndToEnd: []metricSpec{
		{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10},
		{Name: "sim_ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.10},
	}}
	runs := func(pinned string, wall, rate []float64) []record {
		out := make([]record, len(wall))
		for i := range wall {
			out[i] = record{Workload: "w", Seed: uint64(i + 1), Pins: []pin{{"p", pinned, 5}}}
			out[i].Metrics = map[string]metricValue{"wall_s": {wall[i], "s"}, "sim_ops_per_s": {rate[i], "ops/s"}}
		}
		return out
	}
	steady := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00}
	noisy := []float64{1.0, 1.4, 0.7, 1.3, 0.8, 1.1}
	times := func(k float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * k
		}
		return out
	}
	for _, c := range []struct {
		name         string
		a, b         []record
		wall, rate   string
		wins, losses int // of wall_s
		drift        int
	}{
		{"tie", runs("x", steady, steady), runs("x", steady, steady), "ok", "ok", 0, 0, 0},
		{"clear win", runs("x", steady, steady), runs("x", times(0.5), times(2)), "ok", "ok", 6, 0, 0},
		{"regression", runs("x", steady, steady), runs("x", times(1.3), times(0.7)), "regressed", "regressed", 0, 6, 0},
		{"within bound", runs("x", steady, steady), runs("x", times(1.05), times(0.95)), "ok", "ok", 0, 6, 0},
		{"noisy parent", runs("x", noisy, noisy), runs("x", times(1.3), times(0.7)), "unresolved", "unresolved", 1, 5, 0},
		{"noisy parent, every run better", runs("x", noisy, noisy), runs("x", times(0.5), times(2)), "ok", "ok", 6, 0, 0},
		{"drift", runs("x", steady, steady), runs("y", steady, steady), "ok", "ok", 0, 0, 6},
	} {
		verdicts, drift := compareRuns(spec, c.a, c.b)
		if len(verdicts) != 2 {
			t.Fatalf("%s: %d verdicts, want 2", c.name, len(verdicts))
		}
		wall, rate := verdicts[0], verdicts[1]
		if wall.Status != c.wall || rate.Status != c.rate {
			t.Errorf("%s: wall_s %s, sim_ops_per_s %s; want %s, %s", c.name, wall.Status, rate.Status, c.wall, c.rate)
		}
		if wall.Wins != c.wins || wall.Losses != c.losses {
			t.Errorf("%s: wall_s wins/losses %d/%d, want %d/%d", c.name, wall.Wins, wall.Losses, c.wins, c.losses)
		}
		if len(drift) != c.drift {
			t.Errorf("%s: %d runs drifted, want %d: %v", c.name, len(drift), c.drift, drift)
		}
	}
}
