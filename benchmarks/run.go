package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// setUps is how often a run repeats the set-up; setup_s is the median.
const setUps = 3

// minIterations is how many untraced iterations a run times at least.
const minIterations = 3

// hostInfo describes where a record was measured.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func thisHost() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the last line of standard output holds.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as -out archives it and -compare reads it.
type record struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Traced   bool     `json:"traced"`
	Host     hostInfo `json:"host"`
	result
	Samples  map[string][]float64 `json:"samples"` // per timed iteration
	Pins     []pin                `json:"pins"`
	Failures []string             `json:"failures,omitempty"`
}

type runOptions struct {
	seed     uint64
	seconds  float64
	traced   bool
	size     float64 // 1 is the benchmark; tests pass a fraction
	quick    bool    // one set-up and the fewest iterations: tests and -repin
	expected []pin   // the seed's pinned outcome, nil if none
	traceOut string  // Chrome trace file of a traced run, "" for none
	// shared holds the per-layer metrics that do not depend on the
	// workload (sharedLayers); a traced run needs them.
	shared map[string]float64
}

// hostSample is what one timed iteration cost the host.
type hostSample struct {
	wall               time.Duration
	allocMB, mallocsK  float64
	peakRSSMB          float64
	gcCycles, gcPauseM float64
}

// timeIteration runs one iteration between two MemStats readings. The
// collection before it gives every iteration the same starting heap.
func timeIteration(iterate func(*recorder) iterResult, rec *recorder) (iterResult, hostSample) {
	runtime.GC()
	resetPeakRSS()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	it := iterate(rec)
	wall := time.Since(t0)
	runtime.ReadMemStats(&b)
	return it, hostSample{
		wall:      wall,
		allocMB:   float64(b.TotalAlloc-a.TotalAlloc) / 1e6,
		mallocsK:  float64(b.Mallocs-a.Mallocs) / 1e3,
		peakRSSMB: peakRSSMB(),
		gcCycles:  float64(b.NumGC - a.NumGC),
		gcPauseM:  float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
	}
}

// mismatches compares an iteration's pins with the reference outcome.
func mismatches(what string, got, want []pin) []string {
	byName := map[string]pin{}
	for _, p := range got {
		byName[p.Name] = p
	}
	var out []string
	for _, w := range want {
		g, ok := byName[w.Name]
		if ok && g != w {
			out = append(out, fmt.Sprintf("%s: %s/%d ops, but %s is %s/%d ops",
				w.Name, g.Fingerprint, g.Ops, what, w.Fingerprint, w.Ops))
		}
	}
	return out
}

// measure runs one workload: the set-ups, the untraced timed iterations,
// and for a traced run the traced iterations, kernels and suite.
func measure(w workloadDef, spec *benchSpec, opt runOptions) (*record, error) {
	rec := &record{Workload: w.name, Seed: opt.seed, Traced: opt.traced, Host: thisHost(),
		Samples: map[string][]float64{}}
	rec.Metrics = map[string]metricValue{}

	nSetUps, minIters := setUps, minIterations
	if opt.quick {
		nSetUps, minIters = 1, 2 // two iterations still show a run repeats itself
	}
	var iterate func(*recorder) iterResult
	for i := 0; i < nSetUps; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if iterate, err = w.prepare(opt.seed, opt.size); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		rec.Samples["setup_s"] = append(rec.Samples["setup_s"], time.Since(t0).Seconds())
	}

	// A traced run spends half its time on untraced iterations (the base
	// of trace.overhead_pct) and half on traced ones.
	budget := opt.seconds
	if opt.traced {
		budget, minIters = opt.seconds/2, minIters-1
	}
	var first iterResult
	note := func(it iterResult, extra []string) {
		fails := append(it.failures, extra...)
		rec.Attempted += it.attempted
		rec.Failed += min(len(fails), it.attempted)
		rec.Failures = append(rec.Failures, fails...)
	}
	start := time.Now()
	for i := 0; i < minIters || time.Since(start).Seconds() < budget; i++ {
		it, hs := timeIteration(iterate, nil)
		var extra []string
		if i == 0 {
			first = it
			rec.Pins = it.pins
			if opt.expected != nil {
				extra = mismatches("pinned in expected.json", it.pins, opt.expected)
			}
		} else {
			extra = mismatches("first iteration", it.pins, first.pins)
		}
		note(it, extra)
		for name, v := range map[string]float64{
			"wall_s": hs.wall.Seconds(), "sim_ops_per_s": div(float64(it.ops), hs.wall.Seconds()),
			"host_alloc_mb": hs.allocMB, "host_mallocs_k": hs.mallocsK, "peak_rss_mb": hs.peakRSSMB,
		} {
			rec.Samples[name] = append(rec.Samples[name], v)
		}
	}

	values := map[string]float64{}
	specs := spec.EndToEnd
	if !opt.traced {
		for name, s := range rec.Samples {
			values[name] = median(s)
		}
		// The smallest per-iteration high-water mark: what the workload needs
		// when the Go collector keeps up. Larger readings come in steps of a
		// whole simulated heap and reflect collector timing, not the program.
		values["peak_rss_mb"] = slices.Min(rec.Samples["peak_rss_mb"])
		values["virt_gc_ms"] = first.virtGCMs
		values["virt_tail_ms"] = first.virtTailMs
	} else {
		specs = spec.PerLayer
		var err error
		if values, err = measureTraced(w, iterate, first, opt, rec, note); err != nil {
			return nil, err
		}
	}
	for _, m := range specs {
		v, ok := values[m.Name]
		if opt.traced && !ok {
			v, ok = 0, true // a layer this workload never enters
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s not measured (got %v)", w.name, m.Name, v)
		}
		rec.Metrics[m.Name] = metricValue{v, m.Unit}
		delete(values, m.Name)
	}
	for name := range values {
		return nil, fmt.Errorf("%s: metric %s measured but not declared in BENCHMARK.json", w.name, name)
	}
	rec.Correct = rec.Failed == 0 && len(rec.Failures) == 0
	return rec, nil
}

// sharedLayers measures the per-layer metrics that are the same whatever
// the workload: the kernels and the suite sample.
func sharedLayers(seed uint64, size float64, reps int) (map[string]float64, error) {
	out, err := runKernels(size, reps)
	if err != nil {
		return nil, fmt.Errorf("kernels: %w", err)
	}
	suite, err := suiteLayers(seed, size)
	if err != nil {
		return nil, fmt.Errorf("suite: %w", err)
	}
	for name, v := range suite {
		out[name] = v
	}
	return out, nil
}

// measureTraced returns every per-layer metric a traced run supplies:
// those of the traced iterations, and the shared ones.
func measureTraced(w workloadDef, iterate func(*recorder) iterResult, first iterResult,
	opt runOptions, rec *record, note func(iterResult, []string)) (map[string]float64, error) {
	tr := newRecorder(w.name)
	layerSamples := map[string][]float64{}
	var tracedWall []float64
	start := time.Now()
	for i := 0; i < 1 || time.Since(start).Seconds() < opt.seconds/2; i++ {
		tr.iter = i
		it, hs := timeIteration(iterate, tr)
		extra := mismatches("first iteration", it.pins, first.pins)
		// Self times of the iteration's span tree sum to its root span; the
		// root must in turn cover the wall time measured outside it.
		var self time.Duration
		for _, d := range tr.selfTimes() {
			self += d
		}
		if off := math.Abs(float64(self-hs.wall)) / float64(hs.wall); off > 0.02 {
			extra = append(extra, fmt.Sprintf("traced iteration %d: self times sum to %v, wall is %v", i, self, hs.wall))
		}
		note(it, extra)
		tracedWall = append(tracedWall, hs.wall.Seconds())
		it.layers["host.gc_cycles"] = hs.gcCycles
		it.layers["host.gc_pause_ms"] = hs.gcPauseM
		for name, v := range it.layers {
			layerSamples[name] = append(layerSamples[name], v)
		}
	}
	values := map[string]float64{}
	for name, s := range layerSamples {
		values[name] = median(s)
	}
	base := median(rec.Samples["wall_s"])
	values["trace.overhead_pct"] = 100 * div(median(tracedWall)-base, base)

	for name, v := range opt.shared {
		values[name] = v
	}
	rec.Attempted++
	if opt.shared["bench.suite_hash_equal"] != 1 {
		rec.Failed++
		rec.Failures = append(rec.Failures, "suite renders differently serially and in parallel")
	}
	if opt.traceOut != "" {
		if err := tr.writeChrome(opt.traceOut); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	return values, nil
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set (Linux: writing 5 to clear_refs), so that each
// iteration reads its own peak; the lifetime maximum is a single extreme
// event and swings by a third from run to run. Where the reset is not
// possible the mark stays the lifetime maximum.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-set high-water mark since the last
// reset.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.Sys) / 1e6 // no procfs: the closest the runtime knows
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var kb float64
		if _, err := fmt.Sscanf(sc.Text(), "VmHWM: %f kB", &kb); err == nil {
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// print writes the run for a reader: host, every metric by name and
// unit, the timed samples, and what failed.
func (r *record) print(w *os.File, spec *benchSpec) {
	h := r.Host
	fmt.Fprintf(w, "# %s seed=%d traced=%v nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		r.Workload, r.Seed, r.Traced, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit)
	specs := spec.EndToEnd
	if r.Traced {
		specs = spec.PerLayer
	}
	for _, m := range specs {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", m.Name, r.Metrics[m.Name].Value, m.Unit)
	}
	names := make([]string, 0, len(r.Samples))
	for name := range r.Samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := r.Samples[name]
		q1, q3 := quartiles(s)
		fmt.Fprintf(w, "samples %-16s n=%d q1=%.6g median=%.6g q3=%.6g %s\n", name, len(s), q1, median(s), q3,
			strings.Trim(fmt.Sprintf("%.6g", s), "[]"))
	}
	for _, p := range r.Pins {
		fmt.Fprintf(w, "pin %-20s %s ops=%d\n", p.Name, p.Fingerprint, p.Ops)
	}
	fmt.Fprintf(w, "operations attempted=%d failed=%d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
}
