package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"runtime"
	"time"

	"nvmgc/internal/bench"
	"nvmgc/internal/cassandra"
	"nvmgc/internal/gc"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
	"nvmgc/internal/metrics"
	"nvmgc/internal/par"
	"nvmgc/internal/workload/generator"
)

// A kernel times one layer on its own through the layer's public
// functions: a fixed count of calls, repeated kernelReps times, reporting
// the median host time per call. Kernels run only in the traced run, and
// are the same whatever the workload, so the four traced runs repeat
// them.
const kernelReps = 5

// kernel returns the metrics one repetition measured.
type kernel func(size float64) (map[string]float64, error)

var kernels = []kernel{
	kernelMachine, kernelWorkerOps, kernelLLC, kernelHeap, kernelHandoffTax,
	kernelGenerators, kernelLatencies, kernelMetrics,
}

// runKernels returns the per-metric median over reps repetitions.
func runKernels(size float64, reps int) (map[string]float64, error) {
	samples := map[string][]float64{}
	for _, k := range kernels {
		for rep := 0; rep < reps; rep++ {
			got, err := k(size)
			if err != nil {
				return nil, err
			}
			for name, v := range got {
				samples[name] = append(samples[name], v)
			}
		}
	}
	out := map[string]float64{}
	for name, vs := range samples {
		out[name] = median(vs)
	}
	return out, nil
}

// count scales a kernel's fixed call count (tests pass a small size).
func count(n int, size float64) int { return max(int(float64(n)*size), 16) }

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// kernelMachine is BenchmarkMachineRun's shape: device-bound 256 B reads
// and 16 B writes, under 16 simulated workers (every op is a scheduler
// handoff) and under one (no handoff).
func kernelMachine(size float64) (map[string]float64, error) {
	const opsPerMachine = 3200
	machines := count(24, size)
	run := func(workers int) float64 {
		t0 := time.Now()
		for i := 0; i < machines; i++ {
			m := memsim.NewMachine(memsim.DefaultConfig())
			m.Run(workers, func(w *memsim.Worker) {
				base := uint64(w.ID()) << 22
				for j := 0; j < opsPerMachine/workers; j++ {
					w.Read(m.NVM, base+uint64(j*4096), 256, false)
					w.Write(m.NVM, base+uint64(j*4096), 16, false)
				}
			})
		}
		return nsPer(time.Since(t0), machines*opsPerMachine*2)
	}
	return map[string]float64{
		"memsim.handoff_ns_per_op": run(16),
		"memsim.solo_ns_per_op":    run(1),
	}, nil
}

// kernelWorkerOps times the word and streaming-store paths of one worker.
func kernelWorkerOps(size float64) (map[string]float64, error) {
	n := count(400_000, size)
	m := memsim.NewMachine(memsim.DefaultConfig())
	var word, nt time.Duration
	m.Run(1, func(w *memsim.Worker) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			addr := uint64(i%8192) * 8
			w.ReadWord(m.NVM, addr)
			w.WriteWord(m.NVM, addr)
		}
		word = time.Since(t0)
		t0 = time.Now()
		for i := 0; i < n; i++ {
			w.WriteNT(m.NVM, 1<<24+uint64(i%65536)*256, 256)
		}
		nt = time.Since(t0)
	})
	return map[string]float64{
		"memsim.word_op_ns":  nsPer(word, 2*n),
		"memsim.nt_write_ns": nsPer(nt, n),
	}, nil
}

// kernelLLC times the LLC probe path: re-reads of a resident 16 KiB set
// against streaming 4 KiB reads that always miss.
func kernelLLC(size float64) (map[string]float64, error) {
	hits, misses := count(400_000, size), count(40_000, size)
	m := memsim.NewMachine(memsim.DefaultConfig())
	var hit, miss time.Duration
	m.Run(1, func(w *memsim.Worker) {
		for j := 0; j < 64; j++ {
			w.Read(m.NVM, uint64(j)*256, 256, true)
		}
		t0 := time.Now()
		for i := 0; i < hits; i++ {
			w.Read(m.NVM, uint64(i%64)*256, 256, true)
		}
		hit = time.Since(t0)
		t0 = time.Now()
		for i := 0; i < misses; i++ {
			w.Read(m.NVM, 1<<24+uint64(i)*4096, 4096, true)
		}
		miss = time.Since(t0)
	})
	return map[string]float64{
		"memsim.llc_hit_ns":  nsPer(hit, hits),
		"memsim.llc_miss_ns": nsPer(miss, misses),
	}, nil
}

// youngHeap is BenchmarkYoungGC's heap: 256 regions, a 24-region eden.
func youngHeap() (*heap.Heap, error) {
	hc := heap.DefaultConfig()
	hc.HeapRegions = 256
	hc.EdenRegions = 24
	return heap.New(memsim.NewMachine(memsim.DefaultConfig()), hc)
}

// fillEden allocates a linked chain of six-word nodes until eden is
// full, rooting every eighth, and returns the objects.
func fillEden(h *heap.Heap) ([]heap.Address, time.Duration, error) {
	node, err := h.Klasses.Define("node", 6, []int32{2, 3})
	if err != nil {
		return nil, 0, err
	}
	var objs []heap.Address
	var d time.Duration
	h.Machine().Run(1, func(w *memsim.Worker) {
		t0 := time.Now()
		var prev heap.Address
		for j := 0; ; j++ {
			a, ok := h.AllocateEden(w, node, 6)
			if !ok {
				break
			}
			if prev != 0 {
				h.SetRefInit(w, a, 2, prev)
			}
			if j%8 == 0 {
				h.Roots.Add(w, a)
			}
			objs = append(objs, a)
			prev = a
		}
		d = time.Since(t0)
	})
	return objs, d, nil
}

// kernelHeap times allocation, heap word reads, and the header map's
// Put and Get, each over one eden's worth of objects.
func kernelHeap(float64) (map[string]float64, error) {
	h, err := youngHeap()
	if err != nil {
		return nil, err
	}
	objs, alloc, err := fillEden(h)
	if err != nil {
		return nil, err
	}
	hm, err := gc.NewHeaderMap(h, int64(len(objs))*64)
	if err != nil {
		return nil, err
	}
	var word, put, get time.Duration
	h.Machine().Run(1, func(w *memsim.Worker) {
		t0 := time.Now()
		for _, a := range objs {
			h.ReadWord(w, heap.SlotAddr(a, 3))
			h.GetRef(w, a, 2)
		}
		word = time.Since(t0)
		t0 = time.Now()
		for _, a := range objs {
			hm.Put(w, a, a+8)
		}
		put = time.Since(t0)
		t0 = time.Now()
		for _, a := range objs {
			hm.Get(w, a)
		}
		get = time.Since(t0)
	})
	n := len(objs)
	return map[string]float64{
		"heap.alloc_ns":       nsPer(alloc, n),
		"heap.word_ns":        nsPer(word, 2*n),
		"gc.headermap_put_ns": nsPer(put, n),
		"gc.headermap_get_ns": nsPer(get, n),
	}, nil
}

// kernelHandoffTax collects the same full eden with 16 simulated GC
// workers and with one: host time per object copied, many over one. The
// one-worker collection never hands off, so the ratio is what the
// scheduler charges the host for simulating parallelism.
func kernelHandoffTax(float64) (map[string]float64, error) {
	perObj := func(threads int) (float64, error) {
		h, err := youngHeap()
		if err != nil {
			return 0, err
		}
		if _, _, err := fillEden(h); err != nil {
			return 0, err
		}
		col, err := gc.NewG1(h, gc.Optimized())
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		s, err := col.Collect(threads)
		return div(float64(time.Since(t0)), float64(s.ObjectsCopied)), err
	}
	many, err := perObj(16)
	if err != nil {
		return nil, err
	}
	one, err := perObj(1)
	if err != nil {
		return nil, err
	}
	return map[string]float64{"memsim.handoff_tax_x": div(many, one)}, nil
}

func kernelGenerators(size float64) (map[string]float64, error) {
	n := count(2_000_000, size)
	const items = 1 << 20
	zipf, err := generator.NewZipfian(generator.NewRand(1, 1), 0, items-1, generator.ZipfianConstant)
	if err != nil {
		return nil, err
	}
	uni, err := generator.NewUniform(generator.NewRand(1, 2), 0, items-1)
	if err != nil {
		return nil, err
	}
	latest, err := generator.NewLatest(generator.NewRand(1, 3), generator.NewCounter(items))
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, g := range []struct {
		metric string
		gen    generator.Generator
	}{
		{"generator.zipfian_next_ns", zipf}, {"generator.uniform_next_ns", uni}, {"generator.latest_next_ns", latest},
	} {
		g.gen.Next() // Latest sizes its zipfian on the first draw
		t0 := time.Now()
		for i := 0; i < n; i++ {
			g.gen.Next()
		}
		out[g.metric] = nsPer(time.Since(t0), n)
	}
	return out, nil
}

// kernelLatencies times the single-server open-loop queue over a
// synthetic timeline: a 3 ms pause every 50 ms.
func kernelLatencies(size float64) (map[string]float64, error) {
	window := memsim.Time(count(1000, size)) * memsim.Millisecond
	var pauses []cassandra.Interval
	for t := 10 * memsim.Millisecond; t < window; t += 50 * memsim.Millisecond {
		pauses = append(pauses, cassandra.Interval{Start: t, End: t + 3*memsim.Millisecond})
	}
	t0 := time.Now()
	lat := cassandra.Latencies(pauses, window, 200_000, 60*memsim.Microsecond, 16, 1)
	return map[string]float64{"cassandra.latencies_ns_per_req": nsPer(time.Since(t0), max(len(lat), 1))}, nil
}

// kernelMetrics times the interpolating percentile (the one
// implementation fleet does not use; ROADMAP item 4a) and table
// rendering.
func kernelMetrics(size float64) (map[string]float64, error) {
	n := count(500_000, size)
	rng := rand.New(rand.NewPCG(1, 2))
	values := make([]float64, n)
	for i := range values {
		values[i] = rng.ExpFloat64()
	}
	t0 := time.Now()
	metrics.Percentile(values, 99.9)
	pct := time.Since(t0)

	tbl := &metrics.Table{Title: "kernel", Columns: []string{"a", "b", "c", "d", "e", "f", "g", "h"}}
	for i := 0; i < 64; i++ {
		tbl.AddRow("row", i, values[i], values[i+1], values[i+2], "x", "y", "z")
	}
	const renders = 200
	t0 = time.Now()
	for i := 0; i < renders; i++ {
		tbl.Render()
	}
	return map[string]float64{
		"metrics.percentile_ns_per_elem": nsPer(pct, n),
		"metrics.render_us":              nsPer(time.Since(t0), renders) / 1e3,
	}, nil
}

// suiteIDs are the quick-suite experiments the user-visible suite time
// is sampled from: thread scaling, cassandra tails, the YCSB grid, fleet.
var suiteIDs = []string{"fig13", "fig8", "workload-sweep", "fleet"}

// runSuite renders the experiments at the given host parallelism and
// returns the wall time and a hash of everything rendered.
func runSuite(seed uint64, size float64, parallel int) (time.Duration, string, error) {
	h := fnv.New64a()
	t0 := time.Now()
	for _, id := range suiteIDs {
		e, ok := bench.ByID(id)
		if !ok {
			return 0, "", fmt.Errorf("no experiment %q", id)
		}
		rep, err := e.Run(bench.Params{Scale: 0.2 * size, Quick: true, Seed: seed, Parallel: parallel})
		if err != nil {
			return 0, "", fmt.Errorf("%s: %w", id, err)
		}
		h.Write([]byte(rep.Render()))
	}
	return time.Since(t0), fmt.Sprintf("%016x", h.Sum64()), nil
}

// suiteLayers measures the suite serially and on min(nproc, 4) host
// workers; the two renderings must be byte-identical.
func suiteLayers(seed uint64, size float64) (map[string]float64, error) {
	workers := par.Workers(min(runtime.NumCPU(), 4), len(suiteIDs))
	serial, hash1, err := runSuite(seed, size, 1)
	if err != nil {
		return nil, err
	}
	parallel, hashN, err := runSuite(seed, size, workers)
	if err != nil {
		return nil, err
	}
	equal := 0.0
	if hash1 == hashN {
		equal = 1
	}
	return map[string]float64{
		"bench.suite_wall_s":     serial.Seconds(),
		"bench.suite_hash_equal": equal,
		"par.speedup_x":          div(float64(serial), float64(parallel)),
		"par.workers":            float64(workers),
	}, nil
}
