package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"nvmgc/internal/cassandra"
	"nvmgc/internal/fleet"
	"nvmgc/internal/gc"
	"nvmgc/internal/memsim"
)

// pin is the exact, virtual outcome of one timed operation: what
// expected.json stores per seed and what every iteration must repeat.
type pin struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	Ops         int64  `json:"ops"`
}

// iterResult is one iteration of a workload.
type iterResult struct {
	ops        int64 // charged simulator ops, or replayed requests for fleet-serve
	attempted  int   // timed operations: runs, matrix points, Serve calls
	failures   []string
	pins       []pin
	virtGCMs   float64
	virtTailMs float64
	// layers holds the per-layer metrics this iteration can supply: the
	// virtual ones always, the host ones only when a recorder was passed.
	layers map[string]float64
}

// workloadDef is one named workload. prepare is the set-up (inputs plus a
// warm-up iteration at about a tenth of the size) and returns the timed
// iteration. size 1 is the benchmark; tests pass a fraction.
type workloadDef struct {
	name    string
	prepare func(seed uint64, size float64) (func(rec *recorder) iterResult, error)
}

func persistADR() gc.Options {
	o := gc.Optimized()
	o.Persist = gc.PersistADR
	return o
}

// The sizes give an iteration of one to three seconds on a two-core host,
// so a 15-second run takes its medians over four to twenty iterations.
var workloads = []workloadDef{
	{"gc-pagerank", simWorkload(1.0/3, []simPoint{
		{name: "page-rank", scenario: "page-rank", scale: 0.3, threads: 16, opt: gc.Optimized()},
	})},
	{"mut-ycsb-b", simWorkload(0.1, []simPoint{
		{name: "ycsb-b-hotspot", scenario: "ycsb-b-hotspot", scale: 10, threads: 16, opt: gc.Optimized()},
	})},
	{"config-matrix", simWorkload(0.1, matrixPoints)},
	{"fleet-serve", prepareFleet},
}

// matrixPoints drive the same layers the other two simulator workloads
// use, differently: collector paths without header map or write cache, PS
// LABs, the DRAM device model, persist barriers, 1 and 56 simulated
// workers, mixed collections, update-heavy and scan-heavy keyed mixes.
var matrixPoints = []simPoint{
	{name: "nb-vanilla-16t", scenario: "naive-bayes", scale: 0.2, threads: 16, opt: gc.Vanilla()},
	{name: "nb-writecache-16t", scenario: "naive-bayes", scale: 0.2, threads: 16, opt: gc.WithWriteCache()},
	{name: "nb-all-16t", scenario: "naive-bayes", scale: 0.2, threads: 16, opt: gc.Optimized()},
	{name: "nb-all-1t", scenario: "naive-bayes", scale: 0.2, threads: 1, opt: gc.Optimized()},
	{name: "nb-all-56t", scenario: "naive-bayes", scale: 0.2, threads: 56, opt: gc.Optimized()},
	{name: "nb-vanilla-dram", scenario: "naive-bayes", scale: 0.2, threads: 16, opt: gc.Vanilla(), dramHeap: true},
	{name: "nb-ps-vanilla", scenario: "naive-bayes", scale: 0.2, threads: 16, ps: true, opt: gc.Vanilla()},
	{name: "nb-ps-all", scenario: "naive-bayes", scale: 0.2, threads: 16, ps: true, opt: gc.Optimized()},
	{name: "cw-all-adr", scenario: "cassandra-write", scale: 0.2, threads: 16, opt: persistADR()},
	{name: "nb-all-3tier", scenario: "naive-bayes", scale: 0.2, threads: 16, opt: gc.Optimized(), threeTier: true},
	{name: "nb-all-mixed2", scenario: "naive-bayes", scale: 0.4, threads: 16, opt: gc.Optimized(), mixedEvery: 2},
	{name: "ycsb-a-vanilla-8t", scenario: "ycsb-a", scale: 2, threads: 8, opt: gc.Vanilla()},
	{name: "ycsb-e-all", scenario: "ycsb-e", scale: 0.25, threads: 16, opt: gc.Optimized()},
}

// simWorkload runs the points serially, one simulated machine at a time.
func simWorkload(warm float64, points []simPoint) func(uint64, float64) (func(*recorder) iterResult, error) {
	return func(seed uint64, size float64) (func(*recorder) iterResult, error) {
		for _, p := range points {
			if _, err := runPoint(p, seed, size*warm, nil); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return func(rec *recorder) iterResult {
			root := rec.begin("iteration")
			var it iterResult
			var tot simTotals
			for i, p := range points {
				if i > 0 {
					// Drop the previous point's 64 MiB machine before building the
					// next, or the peak resident set depends on when the Go
					// collector happens to run.
					runtime.GC()
				}
				it.attempted++
				r, err := runPoint(p, seed, size, rec)
				if err != nil {
					it.failures = append(it.failures, err.Error())
					continue
				}
				it.pins = append(it.pins, pin{p.name, r.print, r.simOps})
				tot.add(p, r)
			}
			wall := rec.end(root, nil)
			it.ops = tot.simOps
			it.virtGCMs = float64(tot.virtGC) / 1e6
			it.virtTailMs = float64(tot.maxPause) / 1e6
			it.layers = tot.layers()
			if rec != nil {
				tot.hostLayers(it.layers, rec, wall)
			}
			return it
		}, nil
	}
}

// simTotals sums what the points of one iteration produced.
type simTotals struct {
	virtTotal, virtGC, virtApp, virtEnd, maxPause int64
	readMostly, writeOnly, persist, cleanup       int64
	objects, bytes, wasted, slots, stolen         int64
	hmHits, hmInstalls, hmFallbacks               int64
	cacheFallbackBytes                            int64
	nvmRead, nvmWrite, dramBytes                  int64
	llcHits, llcMisses                            int64
	simOps, kvOps                                 int64

	pointMs   map[string]float64
	collectNs []int64
	gcSimOps  int64
}

func (t *simTotals) add(p simPoint, r pointResult) {
	v := r.virt
	t.virtTotal += v.Total
	t.virtGC += v.GC
	t.virtApp += v.Total - v.GC
	t.virtEnd += r.virtEnd
	t.kvOps += v.Ops
	t.simOps += r.simOps
	for _, c := range v.Collections {
		t.maxPause = max(t.maxPause, c.Pause)
		t.readMostly += c.ReadMostly
		t.writeOnly += c.WriteOnly
		t.persist += c.PersistBarrier
		t.cleanup += c.Cleanup
		t.objects += c.ObjectsCopied
		t.bytes += c.BytesCopied
		t.wasted += c.WastedCopies
		t.slots += c.SlotsProcessed
		t.stolen += c.StolenSlots
		t.hmHits += c.HeaderMapHits
		t.hmInstalls += c.HeaderMapInstalls
		t.hmFallbacks += c.HeaderMapFallbacks
		t.cacheFallbackBytes += c.CacheFallbackBytes
	}
	for _, tier := range v.Tiers {
		if tier.Persistent {
			t.nvmRead += tier.Stats.ReadBytes
			t.nvmWrite += tier.Stats.WriteBytes
		} else {
			t.dramBytes += tier.Stats.Total()
		}
	}
	t.llcHits += v.LLC.Hits
	t.llcMisses += v.LLC.Misses
	if t.pointMs == nil {
		t.pointMs = map[string]float64{}
	}
	t.pointMs[p.name] = float64(r.wall) / 1e6
	t.collectNs = append(t.collectNs, r.collectNs...)
	t.gcSimOps += r.gcSimOps
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers returns the virtual per-layer metrics: exact, so they must not
// move under a change that only speeds the simulator up.
func (t *simTotals) layers() map[string]float64 {
	f := func(n int64) float64 { return float64(n) }
	return map[string]float64{
		"memsim.ops":              f(t.simOps),
		"memsim.nvm_read_mb":      f(t.nvmRead) / 1e6,
		"memsim.nvm_write_mb":     f(t.nvmWrite) / 1e6,
		"memsim.dram_mb":          f(t.dramBytes) / 1e6,
		"memsim.llc_hit_ratio":    div(f(t.llcHits), f(t.llcHits+t.llcMisses)),
		"gc.virt_readmostly_ms":   f(t.readMostly) / 1e6,
		"gc.virt_writeonly_ms":    f(t.writeOnly) / 1e6,
		"gc.virt_persist_ms":      f(t.persist) / 1e6,
		"gc.virt_cleanup_ms":      f(t.cleanup) / 1e6,
		"gc.objects_copied":       f(t.objects),
		"gc.bytes_copied_mb":      f(t.bytes) / 1e6,
		"gc.wasted_copy_ratio":    div(f(t.wasted), f(t.objects)),
		"gc.steal_ratio":          div(f(t.stolen), f(t.slots)),
		"gc.hm_hit_ratio":         div(f(t.hmHits), f(t.hmHits+t.hmInstalls+t.hmFallbacks)),
		"gc.hm_fallback_ratio":    div(f(t.hmFallbacks), f(t.hmInstalls+t.hmFallbacks)),
		"gc.cache_fallback_ratio": div(f(t.cacheFallbackBytes), f(t.bytes)),
		"workload.virt_total_ms":  f(t.virtTotal) / 1e6,
		"workload.virt_app_ms":    f(t.virtApp) / 1e6,
		"workload.kv_ops":         f(t.kvOps),
	}
}

// hostLayers adds the host-time per-layer metrics of a traced iteration.
func (t *simTotals) hostLayers(out map[string]float64, rec *recorder, wall time.Duration) {
	var collect int64
	for _, ns := range t.collectNs {
		collect += ns
	}
	out["gc.collect_host_ms_p50"] = median(scaled(t.collectNs, 1e-6))
	out["gc.collect_host_share"] = div(float64(collect), float64(wall))
	out["gc.host_ns_per_obj"] = div(float64(collect), float64(t.objects))
	out["gc.host_ns_per_slot"] = div(float64(collect), float64(t.slots))
	out["heap.build_ms"] = float64(rec.total("heap.New")) / 1e6
	out["workload.mutator_host_ns_per_op"] = div(float64(rec.selfTimes()["workload.Run"]), float64(t.simOps-t.gcSimOps))
	out["workload.virt_per_host"] = div(float64(t.virtEnd), float64(wall))
	if len(t.pointMs) > 1 { // only the matrix has per-point rows
		for name, ms := range t.pointMs {
			out["matrix."+name+".host_ms"] = ms
		}
	}
}

func scaled(ns []int64, k float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) * k
	}
	return out
}

// Fleet-serve: eight cassandra-write instances under the vanilla
// collector with four simulated GC threads, so that pauses run past the
// 2 ms hedge trigger and the 2.5 ms retry deadline (with 16 threads at
// this scale none does), run once in set-up; an iteration replays
// open-loop traffic at three rates over their pause timelines. The
// instances' ~25 ms windows are tiled so that p9999 has well over ten
// samples beyond it at every rate.
const (
	fleetInstances = 8
	fleetGCThreads = 4
	fleetScale     = 0.25
	fleetTiles     = 80
)

var fleetRatesKQPS = []int{120, 240, 480}

// fleetTraffic is internal/bench's fleetBenchTraffic shape.
func fleetTraffic(kqps int, seed uint64) fleet.Traffic {
	return fleet.Traffic{
		QPS:     float64(kqps) * 1000,
		Service: 60 * memsim.Microsecond, Servers: 16,
		Tenants: 256, Theta: 0.99,
		HedgeAfter: 2 * memsim.Millisecond,
		RetryAfter: 2500 * memsim.Microsecond, MaxRetries: 2,
		Seed: seed,
	}
}

// tile repeats an instance's pause timeline n times end to end.
func tile(in fleet.Instance, n int) fleet.Instance {
	out := in
	out.Pauses = make([]cassandra.Interval, 0, n*len(in.Pauses))
	for k := 0; k < n; k++ {
		shift := memsim.Time(k) * in.Window
		for _, p := range in.Pauses {
			out.Pauses = append(out.Pauses, cassandra.Interval{Start: p.Start + shift, End: p.End + shift})
		}
	}
	out.Window = in.Window * memsim.Time(n)
	return out
}

// fleetVirtual is the exact outcome of one Serve call.
type fleetVirtual struct {
	Summary fleet.Summary
	Stats   fleet.Stats
}

func prepareFleet(seed uint64, size float64) (func(*recorder) iterResult, error) {
	t0 := time.Now()
	insts, err := fleet.RunInstances(fleet.Config{
		Instances: fleetInstances, Scenario: "cassandra-write", Opt: gc.Vanilla(),
		GCThreads: fleetGCThreads, Scale: fleetScale * size, Seed: seed,
		QPS: 1, Parallel: 1, // QPS only has to validate; Serve gets the real rates
	})
	if err != nil {
		return nil, err
	}
	instancesHost := time.Since(t0)
	tiles := max(int(fleetTiles*size), 1)
	tiled := make([]fleet.Instance, len(insts))
	var pauseNs int64
	var pauses int
	for i, in := range insts {
		for _, p := range in.Pauses {
			pauseNs += p.End - p.Start
		}
		tiled[i] = tile(in, tiles)
		pauses += len(tiled[i].Pauses)
	}

	return func(rec *recorder) iterResult {
		root := rec.begin("iteration")
		it := iterResult{virtGCMs: float64(pauseNs) / 1e6, layers: map[string]float64{}}
		var traffic, merge, summarize, timeline time.Duration
		for _, kqps := range fleetRatesKQPS {
			it.attempted++
			tr := fleetTraffic(kqps, seed)
			var sr *fleet.ServeResult
			var err error
			if rec == nil {
				sr, err = fleet.Serve(tiled, tr)
			} else {
				var d [4]time.Duration
				sr, d, err = serveBySteps(tiled, tr, rec)
				timeline, traffic, merge, summarize = timeline+d[0], traffic+d[1], merge+d[2], summarize+d[3]
			}
			if err == nil {
				err = checkServe(sr)
			}
			if err != nil {
				it.failures = append(it.failures, fmt.Sprintf("serve %dk: %v", kqps, err))
				continue
			}
			s, st := sr.Summary, sr.Stats
			it.ops += s.Requests
			it.pins = append(it.pins, pin{fmt.Sprintf("serve-%dk", kqps), hashOf(fleetVirtual{s, st}), s.Requests})
			if kqps == 240 {
				it.virtTailMs = s.P999ms
			}
			suffix := fmt.Sprintf("_%dk", kqps)
			req := float64(st.Requests)
			it.layers["fleet.hedge_ratio"+suffix] = div(float64(st.Hedged), req)
			it.layers["fleet.hedge_win_ratio"+suffix] = div(float64(st.HedgeWins), float64(st.Hedged))
			it.layers["fleet.retry_ratio"+suffix] = div(float64(st.Retries), req)
			it.layers["fleet.late_ratio"+suffix] = div(float64(st.Late), req)
			it.layers["fleet.virt_p50_ms"+suffix] = s.P50ms
			it.layers["fleet.virt_p999_ms"+suffix] = s.P999ms
			it.layers["fleet.virt_p9999_ms"+suffix] = s.P9999ms
		}
		rec.end(root, nil)
		if rec != nil {
			n := float64(it.ops)
			it.layers["fleet.instances_host_s"] = instancesHost.Seconds()
			it.layers["fleet.traffic_ns_per_req"] = div(float64(traffic), n)
			it.layers["fleet.merge_ns_per_elem"] = div(float64(merge), n)
			it.layers["fleet.summarize_ns_per_elem"] = div(float64(summarize), n)
			it.layers["cassandra.timeline_ns_per_pause"] = div(float64(timeline), float64(len(fleetRatesKQPS)*pauses))
		}
		return it
	}, nil
}

// serveBySteps is fleet.Serve taken apart into its four public steps,
// each under a span; the fingerprint check shows it reproduces Serve's
// Summary and Stats. It returns the steps' host times in call order.
func serveBySteps(insts []fleet.Instance, tr fleet.Traffic, rec *recorder) (*fleet.ServeResult, [4]time.Duration, error) {
	var d [4]time.Duration
	id := rec.begin("cassandra.NewTimeline")
	window := insts[0].Window
	tls := make([]*cassandra.Timeline, len(insts))
	for i := range insts {
		tls[i] = cassandra.NewTimeline(insts[i].Pauses)
		window = min(window, insts[i].Window)
	}
	d[0] = rec.end(id, map[string]int64{"instances": int64(len(insts))})

	id = rec.begin("fleet.SimulateTraffic")
	perInst, stats, _, err := fleet.SimulateTraffic(tls, window, tr)
	d[1] = rec.end(id, map[string]int64{"requests": stats.Requests, "hedged": stats.Hedged, "retries": stats.Retries})
	if err != nil {
		return nil, d, err
	}
	id = rec.begin("fleet.MergeSorted")
	merged := fleet.MergeSorted(perInst)
	d[2] = rec.end(id, map[string]int64{"elems": int64(len(merged))})

	id = rec.begin("fleet.Summarize")
	sum := fleet.Summarize(merged)
	d[3] = rec.end(id, nil)
	return &fleet.ServeResult{Window: window, PerInstance: perInst, Merged: merged, Summary: sum, Stats: stats}, d, nil
}

// checkServe verifies what a correct replay satisfies whatever the seed.
func checkServe(sr *fleet.ServeResult) error {
	if sr.Stats.Commits != sr.Stats.Requests {
		return fmt.Errorf("%d commits for %d requests", sr.Stats.Commits, sr.Stats.Requests)
	}
	if int64(len(sr.Merged)) != sr.Stats.Requests || sr.Summary.Requests != sr.Stats.Requests {
		return fmt.Errorf("merged series has %d latencies, summary %d, for %d requests",
			len(sr.Merged), sr.Summary.Requests, sr.Stats.Requests)
	}
	if !sort.Float64sAreSorted(sr.Merged) {
		return fmt.Errorf("merged latency series is not ascending")
	}
	return nil
}

func workloadByName(name string) (workloadDef, bool) {
	i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.name == name })
	if i < 0 {
		return workloadDef{}, false
	}
	return workloads[i], true
}
