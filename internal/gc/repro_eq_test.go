package gc

import (
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
			cfg := memsim.DefaultConfig()
			tiers := memsim.DefaultTierSpecs(cfg.DRAM, cfg.NVM)
			tiers[1].Fault = memsim.FaultModel{
				Seed:                11,
				TransientReadPPM:    20000,
				WearThresholdMean:   48,
				WearThresholdSpread: 9,
			}
			return tiers
		}},
	}
}

// one run: populate + one young collection; returns the final virtual
// time, the collection stats (including fault outcomes), and the
// per-tier traffic in topology order.
func reproRun(t *testing.T, sc eqScenario, eager bool, threads int, seed uint64) (memsim.Time, CollectionStats, []memsim.DeviceStats) {
	cfg := memsim.DefaultConfig()
	cfg.LLCBytes = 1 << 17
	cfg.EagerYield = eager
	if sc.tiers != nil {
		cfg.Tiers = sc.tiers()
	}
	m := memsim.NewMachine(cfg)
	hc := heap.DefaultConfig()
	hc.RegionBytes = 16 << 10
	hc.HeapRegions = 256
	hc.CacheRegions = 64
	hc.EdenRegions = 48
	hc.SurvivorRegions = 32
	hc.AuxBytes = 2 << 20
	hc.RootSlots = 1 << 12
	hc.HeapKind = memsim.NVM
	hc.Poison = true
	h, err := heap.New(m, hc)
	if err != nil {
		t.Fatal(err)
	}
	spec := defaultSpec()
	spec.seed = seed
	populate(t, h, m, spec)
	g, err := NewG1(h, Vanilla())
	if err != nil {
		t.Fatal(err)
	}
	st, err := g.Collect(threads)
	if err != nil {
		t.Fatal(err)
	}
	var traffic []memsim.DeviceStats
	for _, tier := range m.Topology().Tiers() {
		traffic = append(traffic, tier.Stats())
	}
	return m.Now(), st, traffic
}

// TestReproEquivalence is the quick check on the default topology: the
// eager reference vs the default scheduler (event horizon + delegated
// accounting), at several worker counts and seeds.
func TestReproEquivalence(t *testing.T) {
	sc := eqScenarios()[0]
	for _, th := range []int{2, 4, 8, 16} {
		for _, seed := range []uint64{1, 2, 3, 4} {
			base, st0, tr0 := reproRun(t, sc, true, th, seed)
			def, st1, tr1 := reproRun(t, sc, false, th, seed)
			if def != base || !reflect.DeepEqual(st0, st1) || !reflect.DeepEqual(tr0, tr1) {
				t.Errorf("th=%d seed=%d: default scheduler diverged: now %d vs %d", th, seed, def, base)
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
					baseNow, baseSt, baseTr := reproRun(t, sc, true, th, seed)
					if sc.fault && baseSt.Faults.TransientFaults == 0 && baseSt.Faults.UEsDiscovered == 0 {
						t.Fatalf("th=%d seed=%d: fault arm fired no faults — the scenario exercises nothing", th, seed)
					}
					now, st, tr := reproRun(t, sc, false, th, seed)
					if now != baseNow {
						t.Errorf("th=%d seed=%d: final time %d, want %d", th, seed, now, baseNow)
					}
					if !reflect.DeepEqual(st.Faults, baseSt.Faults) {
						t.Errorf("th=%d seed=%d: fault outcomes diverged:\n got %+v\nwant %+v",
							th, seed, st.Faults, baseSt.Faults)
					}
					if !reflect.DeepEqual(st, baseSt) {
						t.Errorf("th=%d seed=%d: stats diverged:\n got %+v\nwant %+v", th, seed, st, baseSt)
					}
					if !reflect.DeepEqual(tr, baseTr) {
						t.Errorf("th=%d seed=%d: per-tier traffic diverged:\n got %+v\nwant %+v", th, seed, tr, baseTr)
					}
				}
			}
		})
	}
}
