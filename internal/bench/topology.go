package bench

import (
	"fmt"

	"nvmgc/internal/gc"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
	"nvmgc/internal/metrics"
)

// tierSweepSpecs is the three-tier host every sweep point runs on: local
// DRAM, a NUMA-remote/CXL DRAM node (Akram et al., arXiv:1808.00064), and
// the Optane-backed persistent tier. The persistent tier keeps the
// conventional name "nvm" so the legacy placement defaults (old space,
// metadata) resolve onto it unchanged.
func tierSweepSpecs() []memsim.TierSpec {
	local := memsim.MustBuiltinTier("local-dram")
	remote := memsim.MustBuiltinTier("remote-dram")
	nvm := memsim.MustBuiltinTier("optane")
	nvm.Name = "nvm"
	return []memsim.TierSpec{local, remote, nvm}
}

// TierSweep sweeps the placement of the young generation and of the write
// cache across the volatile tiers of a three-tier topology, with the old
// space pinned to NVM throughout. The young-gen-on-local-DRAM point
// reproduces the paper's Section 5.2 DRAM-young configuration inside the
// richer topology; the remote-DRAM points quantify how much of each
// optimization survives when the only spare DRAM is across the
// interconnect. Per-tier GC traffic is reported for every point.
func TierSweep(p Params) (*Report, error) {
	threads := p.threads(16)
	apps, err := appList(p, tierQuickApps)
	if err != nil {
		return nil, err
	}

	specs := tierSweepSpecs()
	tierNames := make([]string, len(specs))
	for i, ts := range specs {
		tierNames[i] = ts.Name
	}

	type point struct {
		label string
		place heap.PlacementPolicy
		opt   gc.Options
	}
	base := heap.PlacementPolicy{
		Eden: "nvm", Survivor: "nvm", Old: "nvm", Humongous: "nvm",
		Cache: "local-dram", Aux: "local-dram", Meta: "nvm",
	}
	young := func(tier string) heap.PlacementPolicy {
		pl := base
		pl.Eden, pl.Survivor = tier, tier
		return pl
	}
	cache := func(tier string) heap.PlacementPolicy {
		pl := base
		pl.Cache = tier
		return pl
	}
	points := []point{
		{"vanilla all-nvm", base, gc.Vanilla()},
		{"young=local-dram", young("local-dram"), gc.Vanilla()},
		{"young=remote-dram", young("remote-dram"), gc.Vanilla()},
		{"wcache=local-dram", cache("local-dram"), gc.WithWriteCache()},
		{"wcache=remote-dram", cache("remote-dram"), gc.WithWriteCache()},
	}

	var runSpecs []runSpec
	for _, app := range apps {
		for _, pt := range points {
			h := p.host(pt.opt)
			h.Machine.Tiers = specs
			h.Heap.Placement = pt.place
			runSpecs = append(runSpecs, runSpec{app: app, host: h, threads: threads, scale: p.scale(), seed: p.seed()})
		}
	}
	outs, err := runAll(p, runSpecs)
	if err != nil {
		return nil, err
	}

	cols := []string{"app", "config", "total (s)", "gc (s)"}
	for _, name := range tierNames {
		cols = append(cols, fmt.Sprintf("%s GC MB", name))
	}
	tbl := &metrics.Table{
		Title:   fmt.Sprintf("young-gen and write-cache tier sweep (%d GC threads; topology %v)", threads, tierNames),
		Columns: cols,
	}
	grand := make([]float64, len(tierNames)) // GC MB per tier position, over every point
	for i, out := range outs {
		sums := make([]float64, len(tierNames))
		for _, c := range out.res.Collections {
			for t, tt := range c.Tiers {
				mb := float64(tt.Stats.Total()) / 1e6
				sums[t] += mb
				grand[t] += mb
			}
		}
		cells := []any{apps[i/len(points)].Name, points[i%len(points)].label, seconds(out.res.Total), seconds(out.res.GC)}
		for _, mb := range sums {
			cells = append(cells, mb)
		}
		tbl.AddRow(cells...)
	}

	rep := &Report{
		ID:     "tier-sweep",
		Title:  "Young generation and write cache across memory tiers",
		Tables: []*metrics.Table{tbl},
	}
	for t, name := range tierNames {
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("tier %s: %s MB total GC traffic across all points", name, metrics.FormatFloat(grand[t])))
	}
	return rep, nil
}
