package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// verdict is the comparison of one end-to-end metric on one workload
// between a parent's runs (a) and a change's runs (b).
type verdict struct {
	Workload, Metric      string
	A, B                  []float64 // one value per run, in file order
	Wins, Losses          int       // pairs of runs b read better / worse in
	Worse, SpreadA, Bound float64   // b's median worse than a's by this share; a's own spread; the bound
	Status                string    // ok, regressed or unresolved
}

// judge applies the rule of the choosing-metrics guide: a metric has
// regressed when the change's median is worse than the parent's by more
// than the bound; when the parent's own inter-quartile spread exceeds the
// bound the runs cannot resolve that, unless every run of the change
// reads better than every run of the parent.
func judge(m metricSpec, workload string, a, b []float64) verdict {
	v := verdict{Workload: workload, Metric: m.Name, A: a, B: b, Bound: m.Bound, SpreadA: spread(a)}
	sign, allBetter := 1.0, slices.Max(b) < slices.Min(a) // lower is better
	if m.Better == "higher" {
		sign, allBetter = -1, slices.Min(b) > slices.Max(a)
	}
	v.Worse = sign * div(median(b)-median(a), math.Abs(median(a)))
	for i := 0; i < min(len(a), len(b)); i++ {
		switch d := sign * (b[i] - a[i]); {
		case d < 0:
			v.Wins++
		case d > 0:
			v.Losses++
		}
	}
	switch {
	case v.SpreadA > m.Bound:
		v.Status = "unresolved"
		if allBetter {
			v.Status = "ok"
		}
	case v.Worse > m.Bound:
		v.Status = "regressed"
	default:
		v.Status = "ok"
	}
	return v
}

// compareRuns judges every (end-to-end metric, workload) pair and lists
// virtual drift: runs of the same workload and seed whose pinned outcome
// (fingerprints and op counts) differs between the two sets.
func compareRuns(spec *benchSpec, a, b []record) (verdicts []verdict, drift []string) {
	for _, w := range spec.Workloads {
		ra, rb := untraced(a, w.Name), untraced(b, w.Name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			verdicts = append(verdicts, judge(m, w.Name, metricOf(ra, m.Name), metricOf(rb, m.Name)))
		}
		for _, x := range ra {
			for _, y := range rb {
				if x.Seed == y.Seed && !slices.Equal(x.Pins, y.Pins) {
					drift = append(drift, fmt.Sprintf("%s seed %d: virtual outcome differs", w.Name, x.Seed))
				}
			}
		}
	}
	slices.Sort(drift)
	return verdicts, slices.Compact(drift)
}

func untraced(rs []record, workload string) []record {
	var out []record
	for _, r := range rs {
		if r.Workload == workload && !r.Traced {
			out = append(out, r)
		}
	}
	return out
}

func metricOf(rs []record, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareFiles prints the comparison and returns an error on any
// regression or virtual drift.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) error {
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	verdicts, drift := compareRuns(spec, a, b)
	if len(verdicts) == 0 {
		return fmt.Errorf("the two files share no workload")
	}
	fmt.Fprintf(w, "%-14s %-15s %3s %12s %12s %12s %3s %12s %8s %8s %6s %9s  %s\n", "workload", "metric",
		"nA", "medianA", "q1A", "q3A", "nB", "medianB", "worse%", "spreadA%", "bound%", "win/loss", "status")
	regressed := 0
	for _, v := range verdicts {
		q1, q3 := quartiles(v.A)
		fmt.Fprintf(w, "%-14s %-15s %3d %12.6g %12.6g %12.6g %3d %12.6g %8.2f %8.2f %6.1f %4d/%-4d  %s\n",
			v.Workload, v.Metric, len(v.A), median(v.A), q1, q3, len(v.B), median(v.B),
			100*v.Worse, 100*v.SpreadA, 100*v.Bound, v.Wins, v.Losses, v.Status)
		if v.Status == "regressed" {
			regressed++
		}
	}
	for _, d := range drift {
		fmt.Fprintln(w, "DRIFT", d)
	}
	if regressed > 0 || len(drift) > 0 {
		return fmt.Errorf("%d metrics regressed, %d runs drifted", regressed, len(drift))
	}
	return nil
}
