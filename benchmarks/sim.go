package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"nvmgc/internal/gc"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
	"nvmgc/internal/workload"
)

// simPoint is one simulated machine run: a registry scenario under one
// collector configuration on one memory topology. The three simulator
// workloads are lists of these (gc-pagerank and mut-ycsb-b of one,
// config-matrix of thirteen), all run by runPoint.
type simPoint struct {
	name     string
	scenario string
	scale    float64 // workload.Config.Scale at benchmark size
	threads  int     // simulated GC workers
	ps       bool    // Parallel Scavenge, else G1
	opt      gc.Options

	dramHeap   bool // whole heap on the DRAM tier
	threeTier  bool // local-dram, remote-dram, optane with the tier-sweep placement
	mixedEvery int  // workload.Config.MixedGCEvery
}

// threeTierSpecs is internal/bench's tier-sweep host: the persistent tier
// keeps the conventional name "nvm" so default placements resolve.
func threeTierSpecs() []memsim.TierSpec {
	nvm := memsim.MustBuiltinTier("optane")
	nvm.Name = "nvm"
	return []memsim.TierSpec{
		memsim.MustBuiltinTier("local-dram"), memsim.MustBuiltinTier("remote-dram"), nvm,
	}
}

// simVirtual is everything virtual a point produces: what the simulated
// system did and how long it took in simulated time. A change meant only
// to speed the simulator up must leave all of it identical, so its hash
// (hashOf) is the point's fingerprint.
type simVirtual struct {
	Total, GC, Allocated, Ops int64
	Collections               []gc.CollectionStats
	Tiers                     []gc.TierTraffic // whole-run device counters, topology order
	LLC                       memsim.CacheStats
}

// hashOf fingerprints a value through its %+v rendering, which names and
// prints every field, nested ones included.
func hashOf(v any) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", v)
	return fmt.Sprintf("%016x", h.Sum64())
}

// check verifies the identities a correct run satisfies whatever the
// seed: the sub-phases partition each pause, persist barriers only exist
// with a persist mode, and a keyed scenario completes its op budget.
func (v simVirtual) check(p simPoint, wantOps int64) error {
	var pause int64
	for i, c := range v.Collections {
		if c.ReadMostly+c.WriteOnly+c.PersistBarrier+c.Cleanup != c.Pause {
			return fmt.Errorf("%s: collection %d: sub-phases %d+%d+%d+%d != pause %d", p.name, i,
				c.ReadMostly, c.WriteOnly, c.PersistBarrier, c.Cleanup, c.Pause)
		}
		if p.opt.Persist == gc.PersistNone && c.PersistBarrier != 0 {
			return fmt.Errorf("%s: collection %d: persist barrier %d without a persist mode", p.name, i, c.PersistBarrier)
		}
		pause += c.Pause
	}
	if pause != v.GC {
		return fmt.Errorf("%s: pauses sum to %d, Result.GC is %d", p.name, pause, v.GC)
	}
	if v.Ops != wantOps {
		return fmt.Errorf("%s: %d keyed ops completed, budget %d", p.name, v.Ops, wantOps)
	}
	return nil
}

// pointResult is one run of one point.
type pointResult struct {
	virt    simVirtual
	print   string // hashOf(virt)
	simOps  int64  // charged simulator operations, set-up phase included
	virtEnd int64  // the machine's clock at the end (virtual ns simulated)
	wall    time.Duration

	// Traced runs only.
	collectNs []int64 // host ns per collection
	gcSimOps  int64   // charged ops issued inside collections
}

// runPoint builds the point's machine, heap, collector and runner, runs
// it, and checks it. scaleMul shrinks the run (warm-up, smoke tests).
func runPoint(p simPoint, seed uint64, scaleMul float64, rec *recorder) (pointResult, error) {
	t0 := time.Now()
	pt := rec.begin("point:" + p.name)
	defer rec.end(pt, nil)

	spec, err := workload.ScenarioByName(p.scenario)
	if err != nil {
		return pointResult{}, err
	}
	build := rec.begin("build")
	mc := memsim.DefaultConfig()
	mc.TraceBucket = 0
	hc := heap.DefaultConfig()
	if p.threeTier {
		mc.Tiers = threeTierSpecs()
		hc.Placement = heap.PlacementPolicy{
			Eden: "nvm", Survivor: "nvm", Old: "nvm", Humongous: "nvm",
			Cache: "remote-dram", Aux: "local-dram", Meta: "nvm",
		}
	}
	if p.dramHeap {
		hc.HeapKind = memsim.DRAM
	}
	m := memsim.NewMachine(mc)
	if p.opt.Persist != gc.PersistNone {
		m.EnablePersist(m.NVM, p.opt.Persist == gc.PersistEADR)
		hc.MetaBytes = 1 << 20
	}
	hn := rec.begin("heap.New")
	h, err := heap.New(m, hc)
	rec.end(hn, nil)
	if err != nil {
		return pointResult{}, fmt.Errorf("%s: %w", p.name, err)
	}
	var real anyCollector
	if p.ps {
		real, err = gc.NewPS(h, p.opt)
	} else {
		real, err = gc.NewG1(h, p.opt)
	}
	if err != nil {
		return pointResult{}, fmt.Errorf("%s: %w", p.name, err)
	}
	var col gc.Collector = real
	var timed *timedCollector
	if rec != nil {
		timed = &timedCollector{inner: real, rec: rec}
		col = timed
	}
	cfg := workload.Config{GCThreads: p.threads, Scale: p.scale * scaleMul, Seed: seed, MixedGCEvery: p.mixedEvery}
	r, err := spec.NewRunner(col, cfg)
	rec.end(build, nil)
	if err != nil {
		return pointResult{}, fmt.Errorf("%s: %w", p.name, err)
	}

	run := rec.begin("workload.Run")
	res, err := r.Run()
	rec.end(run, map[string]int64{"collections": int64(len(res.Collections)), "kv_ops": res.Ops})
	if err != nil {
		return pointResult{}, fmt.Errorf("%s: %w", p.name, err)
	}

	out := pointResult{simOps: chargedOps(m), virtEnd: m.Now()}
	out.virt = simVirtual{
		Total: res.Total, GC: res.GC, Allocated: res.Allocated, Ops: res.Ops,
		Collections: res.Collections, LLC: m.LLC.Stats(),
	}
	for _, t := range m.Topology().Tiers() {
		out.virt.Tiers = append(out.virt.Tiers, gc.TierTraffic{
			Name: t.Spec().Name, Persistent: t.Persistent(), Stats: t.Stats(),
		})
	}
	out.print = hashOf(out.virt)
	if timed != nil {
		out.collectNs, out.gcSimOps = timed.hostNs, timed.ops
	}
	var wantOps int64
	if spec.Core != nil {
		wantOps = max(int64(float64(spec.Core.Ops)*cfg.Scale), 1)
	}
	out.wall = time.Since(t0)
	return out, out.virt.check(p, wantOps)
}
