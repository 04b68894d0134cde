package bench

import (
	"testing"
)

// TestFleetBenchParallelAndSchedulerEquivalence is the fleet half of the
// determinism net at the bench layer: the whole BENCH_fleet table (CSV
// bytes and notes) must be identical at -parallel 1, 2, and 8, in both
// scheduler modes (the eager-yield reference and the default
// horizon + delegation scheduler), and across repeated runs with the same
// seed. Per-instance op streams are pinned by the fleet package's own
// determinism test; this one guards the full experiment pipeline the
// archive is generated from.
func TestFleetBenchParallelAndSchedulerEquivalence(t *testing.T) {
	p := Params{Scale: 0.3, Seed: 1, Quick: true, Parallel: 1}
	run := func(p Params) (string, []string) {
		rep, err := FleetBench(p)
		if err != nil {
			t.Fatal(err)
		}
		return rep.CSV(), rep.Notes
	}
	refCSV, refNotes := run(p)
	if refCSV == "" {
		t.Fatal("reference run produced no table")
	}
	variants := []struct {
		name string
		mut  func(*Params)
	}{
		{"parallel=2", func(p *Params) { p.Parallel = 2 }},
		{"eager scheduler", func(p *Params) { p.EagerYield = true }},
	}
	if !testing.Short() {
		variants = append(variants,
			struct {
				name string
				mut  func(*Params)
			}{"parallel=8", func(p *Params) { p.Parallel = 8 }},
			struct {
				name string
				mut  func(*Params)
			}{"eager parallel=8", func(p *Params) { p.EagerYield = true; p.Parallel = 8 }},
			struct {
				name string
				mut  func(*Params)
			}{"repeat run", func(p *Params) {}},
		)
	}
	for _, v := range variants {
		vp := p
		v.mut(&vp)
		csv, notes := run(vp)
		if csv != refCSV {
			t.Errorf("%s: BENCH_fleet table diverged from the -parallel 1 delegated reference:\n--- reference\n%s\n--- got\n%s", v.name, refCSV, csv)
		}
		if len(notes) != len(refNotes) {
			t.Errorf("%s: %d notes, reference %d", v.name, len(notes), len(refNotes))
			continue
		}
		for i := range notes {
			if notes[i] != refNotes[i] {
				t.Errorf("%s: note %d diverged:\n%s\n%s", v.name, i, notes[i], refNotes[i])
			}
		}
	}
}
