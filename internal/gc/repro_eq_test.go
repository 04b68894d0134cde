package gc

import (
	"fmt"
	"reflect"
	"testing"

	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

// eqScenario is one machine shape the equivalence sweep runs on. A nil
// tiers function selects the default two-tier topology.
type eqScenario struct {
	name  string
	tiers func() []memsim.TierSpec
	fault bool // scenario carries a media-fault model (wear + transient)
}

func eqScenarios() []eqScenario {
	return []eqScenario{
		{name: "2-tier"},
		{name: "3-tier", tiers: func() []memsim.TierSpec {
			local := memsim.MustBuiltinTier("local-dram")
			remote := memsim.MustBuiltinTier("remote-dram")
			nvm := memsim.MustBuiltinTier("optane")
			nvm.Name = "nvm" // legacy placement defaults resolve onto it
			return []memsim.TierSpec{local, remote, nvm}
		}},
		{name: "fault-arm", fault: true, tiers: func() []memsim.TierSpec {
			return memsim.WithFault(memsim.DefaultConfig().Tiers, memsim.FaultModel{
				Seed:                11,
				TransientReadPPM:    20000,
				WearThresholdMean:   48,
				WearThresholdSpread: 9,
			})
		}},
	}
}

// eqRun is one collection of the equivalence sweeps: which collector, with
// which options, runs which algorithm over which graph. The zero value is
// a vanilla G1 young collection.
type eqRun struct {
	ps      bool
	opt     Options
	mode    gcMode
	persist bool // track the NVM tier in a persistence domain (opt.Persist needs it)
	hot     int  // extra root slots all holding one eden object
	live    bool // root most of eden, so destination regions fill mid-traversal
}

// eqResult is everything a run decides: the final virtual time, the
// collection stats (including fault outcomes), the per-tier traffic in
// topology order, and how often the drain machine left for each of its
// blocking sections. switches, the coroutine switches the collection
// made, is host cost, not a decision: diff ignores it.
type eqResult struct {
	now      memsim.Time
	stats    CollectionStats
	traffic  []memsim.DeviceStats
	exits    [numDrainExits]int64
	switches int64
}

// run populates a fresh heap and collects it once.
func (r eqRun) run(t *testing.T, sc eqScenario, eager bool, threads int, seed uint64) eqResult {
	t.Helper()
	cfg := memsim.DefaultConfig()
	cfg.LLCBytes = 1 << 17
	cfg.EagerYield = eager
	if sc.tiers != nil {
		cfg.Tiers = sc.tiers()
	}
	m := memsim.NewMachine(cfg)
	if r.persist {
		m.EnablePersist(m.NVM, false)
	}
	hc := heap.DefaultConfig()
	hc.RegionBytes = 16 << 10
	hc.HeapRegions = 256
	hc.CacheRegions = 64
	hc.EdenRegions = 48
	hc.SurvivorRegions = 32
	hc.AuxBytes = 2 << 20
	hc.MetaBytes = 1 << 20
	hc.RootSlots = 1 << 12
	hc.Poison = true
	h, err := heap.New(m, hc)
	if err != nil {
		t.Fatal(err)
	}
	spec := defaultSpec()
	spec.seed = seed
	spec.hotRoots = r.hot
	if r.live {
		spec.rootProb = 0.6
	}
	populate(t, h, m, spec)
	b, err := newBase(h, r.opt, r.ps, "eq")
	if err != nil {
		t.Fatal(err)
	}
	var st CollectionStats
	switches := m.Switches()
	switch r.mode {
	case gcMixed:
		st, err = b.CollectMixed(threads, 4)
	case gcFull:
		st, err = b.CollectFull(threads)
	default:
		st, err = b.Collect(threads)
	}
	if err != nil {
		t.Fatal(err)
	}
	res := eqResult{now: m.Now(), stats: st, exits: b.arena.cyc.exits, switches: m.Switches() - switches}
	for _, tier := range m.Topology().Tiers() {
		res.traffic = append(res.traffic, tier.Stats())
	}
	return res
}

// diff reports the first field in which got departs from the reference.
func (want eqResult) diff(got eqResult) string {
	switch {
	case got.now != want.now:
		return fmt.Sprintf("final time %d, want %d", got.now, want.now)
	case !reflect.DeepEqual(got.stats.Faults, want.stats.Faults):
		return fmt.Sprintf("fault outcomes diverged:\n got %+v\nwant %+v", got.stats.Faults, want.stats.Faults)
	case !reflect.DeepEqual(got.stats, want.stats):
		return fmt.Sprintf("stats diverged:\n got %+v\nwant %+v", got.stats, want.stats)
	case !reflect.DeepEqual(got.traffic, want.traffic):
		return fmt.Sprintf("per-tier traffic diverged:\n got %+v\nwant %+v", got.traffic, want.traffic)
	case got.exits != want.exits:
		return fmt.Sprintf("drain exits diverged: got %v, want %v", got.exits, want.exits)
	}
	return ""
}

// TestReproEquivalence is the quick check on the default topology: the
// eager reference (every step driven from its owner's coroutine) vs the
// default scheduler (event horizon, delegated accounting, peer-run steps),
// at several worker counts and seeds, then across both collectors, the
// vanilla and fully optimized configurations and all three algorithms from
// one thread (no scheduler at all) to 56.
func TestReproEquivalence(t *testing.T) {
	sc := eqScenarios()[0]
	for _, th := range []int{2, 3, 4, 8, 16, 17} {
		for _, seed := range []uint64{1, 2, 3, 4} {
			want := eqRun{}.run(t, sc, true, th, seed)
			if d := want.diff(eqRun{}.run(t, sc, false, th, seed)); d != "" {
				t.Errorf("th=%d seed=%d: default scheduler diverged: %s", th, seed, d)
			}
		}
	}
	all := Optimized()
	all.HeaderMapMinThreads = 1
	for _, ps := range []bool{false, true} {
		for _, opt := range []Options{Vanilla(), all} {
			for _, mode := range []gcMode{gcYoung, gcMixed, gcFull} {
				for _, th := range []int{1, 4, 16, 56} {
					r := eqRun{ps: ps, opt: opt, mode: mode}
					want := r.run(t, sc, true, th, 1)
					if d := want.diff(r.run(t, sc, false, th, 1)); d != "" {
						t.Errorf("ps=%v %s mode=%d th=%d: default scheduler diverged: %s", ps, opt.Label(), mode, th, d)
					}
				}
			}
		}
	}
}

// TestSchedulerModeEquivalence is the collector's golden equivalence
// sweep: across the two-tier and three-tier topologies and a fault-armed
// machine (seeded wear-out plus transient read faults), the default
// scheduler must reproduce the eager-yield reference bit-for-bit: final
// virtual time, per-tier device traffic, and every fault outcome in
// CollectionStats.Faults.
func TestSchedulerModeEquivalence(t *testing.T) {
	for _, sc := range eqScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			for _, th := range []int{4, 16} {
				for _, seed := range []uint64{1, 2} {
					want := eqRun{}.run(t, sc, true, th, seed)
					if sc.fault && want.stats.Faults.TransientFaults == 0 && want.stats.Faults.UEsDiscovered == 0 {
						t.Fatalf("th=%d seed=%d: fault arm fired no faults — the scenario exercises nothing", th, seed)
					}
					if d := want.diff(eqRun{}.run(t, sc, false, th, seed)); d != "" {
						t.Errorf("th=%d seed=%d: %s", th, seed, d)
					}
				}
			}
		})
	}
}

// TestDrainExitsEquivalence drives every blocking section the drain
// machine leaves for — each must be taken (the counter proves it) and the
// default scheduler, where peers run the steps around it, must still
// reproduce the eager reference bit-for-bit.
func TestDrainExitsEquivalence(t *testing.T) {
	all := Optimized()
	all.HeaderMapMinThreads = 1
	async := all
	async.AsyncFlush = true
	journal := Vanilla()
	journal.Persist = PersistADR
	wear := eqScenario{name: "wear", fault: true, tiers: func() []memsim.TierSpec {
		return memsim.WithFault(memsim.DefaultConfig().Tiers, memsim.FaultModel{Seed: 3, WearThresholdMean: 4, WearThresholdSpread: 1})
	}}
	cases := []struct {
		name string
		sc   eqScenario
		run  eqRun
		want []drainExit
	}{
		{"steal", eqScenarios()[0], eqRun{}, []drainExit{exitSteal}},
		// A few hundred root slots hold one object, so every worker looks
		// it up at once: all but the first find its header-map entry
		// claimed and not yet published.
		{"in-flight entry", eqScenarios()[0], eqRun{opt: all, hot: 400}, []drainExit{exitWaitValue}},
		{"async flush", eqScenarios()[0], eqRun{opt: async, live: true}, []drainExit{exitFlush, exitAlloc}},
		{"async flush, ps", eqScenarios()[0], eqRun{ps: true, opt: async, live: true}, []drainExit{exitFlush, exitAlloc}},
		{"journal", eqScenarios()[0], eqRun{opt: journal, persist: true}, []drainExit{exitJournal}},
		{"transient fault", eqScenarios()[2], eqRun{}, []drainExit{exitFaultRetry}},
		{"poisoned copy", wear, eqRun{}, []drainExit{exitReroute}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var taken [numDrainExits]int64
			for _, th := range []int{4, 16} {
				want := tc.run.run(t, tc.sc, true, th, 1)
				for e, n := range want.exits {
					taken[e] += n
				}
				if d := want.diff(tc.run.run(t, tc.sc, false, th, 1)); d != "" {
					t.Errorf("th=%d: %s", th, d)
				}
			}
			for _, e := range tc.want {
				if taken[e] == 0 {
					t.Errorf("exit %d never taken (exits %v) — the case exercises nothing", e, taken)
				}
			}
		})
	}
}

// TestRootScanEquivalence: with push-time prefetching every root slot is
// a charged operation, and the root scan runs in step form, so 16 workers
// scanning a few thousand extra root slots stay bit-identical to the eager
// reference and add almost no coroutine switches to the collection's own
// (steals, barriers). Written as a blocking loop, the scan adds about one
// switch per slot.
func TestRootScanEquivalence(t *testing.T) {
	sc := eqScenarios()[0]
	r := eqRun{hot: 3000}
	want := r.run(t, sc, true, 16, 1)
	got := r.run(t, sc, false, 16, 1)
	if d := want.diff(got); d != "" {
		t.Fatal(d)
	}
	base := eqRun{}.run(t, sc, false, 16, 1).switches
	added := got.switches - base
	t.Logf("%d switches with %d extra root slots, %d without", got.switches, r.hot, base)
	if added*100 >= int64(r.hot) {
		t.Errorf("%d extra root slots added %d coroutine switches, want < 1 per 100", r.hot, added)
	}
}

// TestCollectRejectsTooManyThreads: a thread count no parallel phase can
// hold is an error from Collect, not a panic out of Machine.Run.
func TestCollectRejectsTooManyThreads(t *testing.T) {
	h, _ := testEnv(t)
	g, err := NewG1(h, Vanilla())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Collect(memsim.MaxWorkers + 1); err == nil {
		t.Fatal("Collect accepted more threads than a phase has workers")
	}
	if _, err := g.Collect(memsim.MaxWorkers); err != nil {
		t.Fatalf("Collect(%d): %v", memsim.MaxWorkers, err)
	}
}
