package bench

import (
	"testing"

	"nvmgc/internal/gc"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
	"nvmgc/internal/workload"
)

// TestTierSweepPointSchedulerEquivalence pins the scheduler-mode
// equivalence contract on a full application run in the tier-sweep's
// hardest configuration (young generation on remote DRAM inside the
// three-tier topology): the eager-yield reference and the default
// scheduler must produce the identical result — total time, GC time, and
// per-tier traffic. The gc package's equivalence tests cover
// collector-only cycles; this one covers the mutator/allocation path of a
// whole workload, which is where a regression in the delegation
// discipline would otherwise only surface as a silent drift in the
// archived sweep figures.
func TestTierSweepPointSchedulerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full app run; skipped in -short")
	}
	base := heap.PlacementPolicy{
		Eden: "remote-dram", Survivor: "remote-dram",
		Old: "nvm", Humongous: "nvm",
		Cache: "local-dram", Aux: "local-dram", Meta: "nvm",
	}
	type snap struct {
		total, gcTime memsim.Time
		tiers         map[string]memsim.DeviceStats
	}
	app, err := workload.ScenarioByName("page-rank")
	if err != nil {
		t.Fatal(err)
	}
	run := func(eager bool) snap {
		h := Params{EagerYield: eager}.host(gc.Vanilla())
		h.Machine.Tiers = tierSweepSpecs()
		h.Heap.Placement = base
		host, res, err := runHost(runSpec{app: app, host: h, threads: 16, scale: 0.5, seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		s := snap{total: res.Total, gcTime: res.GC, tiers: map[string]memsim.DeviceStats{}}
		for _, tier := range host.M.Topology().Tiers() {
			s.tiers[tier.Name()] = tier.Stats()
		}
		return s
	}
	ref, got := run(true), run(false)
	if got.total != ref.total || got.gcTime != ref.gcTime {
		t.Errorf("default scheduler: total %d gc %d, eager reference total %d gc %d",
			got.total, got.gcTime, ref.total, ref.gcTime)
	}
	for name, want := range ref.tiers {
		if got.tiers[name] != want {
			t.Errorf("default scheduler: tier %s stats %+v, eager reference %+v", name, got.tiers[name], want)
		}
	}
}
