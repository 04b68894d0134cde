package bench

import (
	"fmt"

	"nvmgc/internal/gc"
	"nvmgc/internal/metrics"
	"nvmgc/internal/workload"
)

// workloadSweepScenarios returns the scenario grid: every registered
// YCSB core mix (A–F plus the hotspot-skew variants), in registry
// order. Quick mode keeps the full scenario axis — the archived sweep
// must cover all the mixes — and trims the collector-config axis
// instead.
func workloadSweepScenarios() []workload.Spec {
	var out []workload.Spec
	for _, s := range workload.Scenarios() {
		if s.Family == "ycsb" {
			out = append(out, s)
		}
	}
	return out
}

// WorkloadSweep runs the collector-config × YCSB-scenario grid: each
// point drives a keyed object population (zipfian, hotspot, or
// latest-skewed requests over versioned rows) through one collector
// configuration on the NVM heap. This is the scenario-diversity
// complement to fig5's fixed application table: the request
// distribution, not the demographics table, decides where garbage and
// remembered-set work concentrate.
func WorkloadSweep(p Params) (*Report, error) {
	threads := p.threads(16)
	scenarios := workloadSweepScenarios()
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("bench: no ycsb scenarios registered")
	}
	type cfg struct {
		label string
		opt   gc.Options
	}
	cfgs := []cfg{
		{"vanilla", gc.Vanilla()},
		{"all", gc.Optimized()},
	}
	if !p.Quick {
		cfgs = append(cfgs[:1:1], cfg{"writecache", gc.WithWriteCache()}, cfgs[1])
	}

	var specs []runSpec // scenario-major, one per collector config
	for _, s := range scenarios {
		for _, c := range cfgs {
			h := workload.KeyedHost()
			h.Machine = p.machineConfig(false)
			h.Opt = c.opt
			specs = append(specs, runSpec{app: s, host: h, threads: threads, scale: p.scale(), seed: p.seed()})
		}
	}
	outs, err := runAll(p, specs)
	if err != nil {
		return nil, err
	}

	tbl := &metrics.Table{
		Title:   fmt.Sprintf("collector config x YCSB scenario sweep (%d GC threads, keyed population)", threads),
		Columns: []string{"scenario", "dist", "config", "ops", "total (s)", "app (s)", "gc (s)", "gcs", "alloc MB"},
	}
	var vanillaGC, optGC []float64
	for i, spec := range specs {
		res, label := outs[i].res, cfgs[i%len(cfgs)].label
		tbl.AddRow(spec.app.Name, spec.app.Core.Request, label, fmt.Sprint(res.Ops),
			seconds(res.Total), seconds(res.App), seconds(res.GC),
			fmt.Sprint(len(res.Collections)), float64(res.Allocated)/1e6)
		if len(res.Collections) > 0 {
			switch label {
			case "vanilla":
				vanillaGC = append(vanillaGC, seconds(res.GC))
			case "all":
				optGC = append(optGC, seconds(res.GC))
			}
		}
	}

	rep := &Report{
		ID:     "workload-sweep",
		Title:  "Collector configurations across YCSB scenario mixes",
		Tables: []*metrics.Table{tbl},
	}
	if n := min(len(vanillaGC), len(optGC)); n > 0 {
		var v, o float64
		for i := 0; i < n; i++ {
			v += vanillaGC[i]
			o += optGC[i]
		}
		if o > 0 {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"collecting mixes: %.2fx GC-time reduction from all optimizations (summed over %d scenarios)", v/o, n))
		}
	}
	return rep, nil
}
