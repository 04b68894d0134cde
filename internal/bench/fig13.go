package bench

import (
	"fmt"
	"slices"

	"nvmgc/internal/gc"
	"nvmgc/internal/metrics"
	"nvmgc/internal/workload"
)

// Fig13 reproduces Figure 13: accumulated GC time per application as a
// function of the GC thread count, for vanilla, +writecache and +all.
// The paper's shape: vanilla stops scaling (or regresses) beyond ~8
// threads because NVM bandwidth saturates; +writecache pushes the knee to
// ~20; +all keeps scaling to 56 logical cores for most applications.
func Fig13(p Params) (*Report, error) {
	threadSet := []int{1, 2, 4, 8, 20, 28, 56}
	apps, err := appList(p, defaultQuickApps)
	if err != nil {
		return nil, err
	}
	if p.Quick {
		threadSet = []int{1, 8, 56}
		apps = apps[:2]
	}
	configs := []struct {
		label string
		opt   gc.Options
	}{
		{"vanilla", gc.Vanilla()},
		{"+writecache", gc.WithWriteCache()},
		{"+all", gc.Optimized()},
	}

	var variants []func(*runSpec) // config-major, then thread count
	for _, cfg := range configs {
		for _, th := range threadSet {
			variants = append(variants, func(s *runSpec) { s.host.Opt, s.threads = cfg.opt, th })
		}
	}
	outs, err := grid(p, apps, 0, variants...)
	if err != nil {
		return nil, err
	}

	rep := &Report{ID: "fig13", Title: "GC scalability"}
	at8 := slices.Index(threadSet, 8)
	scaleBeyond8 := make([][]float64, len(configs))
	for i, app := range apps {
		t := &metrics.Table{
			Title:   fmt.Sprintf("%s: GC time (s) vs GC threads", app.Name),
			Columns: []string{"threads", "vanilla", "+writecache", "+all"},
		}
		// gcs[config][thread index]
		var gcs [][]float64
		for runs := range slices.Chunk(outs[i], len(threadSet)) {
			var row []float64
			for _, out := range runs {
				row = append(row, seconds(out.res.GC))
			}
			gcs = append(gcs, row)
		}
		for ti, th := range threadSet {
			t.AddRow(th, gcs[0][ti], gcs[1][ti], gcs[2][ti])
		}
		rep.Tables = append(rep.Tables, t)

		// How much each config still gains beyond 8 threads — the
		// paper's claim is that vanilla gains nothing there while the
		// optimizations keep scaling.
		for ci, row := range gcs {
			best := slices.Min(row[at8:])
			if row[at8] > 0 && best > 0 {
				scaleBeyond8[ci] = append(scaleBeyond8[ci], row[at8]/best)
			}
		}
	}
	for ci, cfg := range configs {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%s: GC speedup from adding threads beyond 8: %.2fx avg (paper: vanilla plateaus ~8, +writecache ~20, +all scales to 56)",
			cfg.label, mean(scaleBeyond8[ci])))
	}
	return rep, nil
}

// Fig14 reproduces Figure 14: GC time under the Parallel Scavenge
// collector for the Renaissance suite, comparing vanilla PS, the
// optimizations without prefetching, and +all. The paper reports speedups
// of 0.61x-2.26x (smaller than G1, since PS's irregular direct copies let
// the write cache absorb fewer writes) and a 4.8% average benefit from
// adding prefetch instructions to PS.
func Fig14(p Params) (*Report, error) {
	threads := p.threads(16)
	all, err := appList(p, defaultQuickApps)
	if err != nil {
		return nil, err
	}
	var apps []workload.Spec
	for _, a := range all {
		if a.Profile.Suite == "renaissance" || p.Quick {
			apps = append(apps, a)
		}
	}

	t := &metrics.Table{
		Title:   "PS GC time (s)",
		Columns: []string{"app", "vanilla", "no-prefetch", "+all", "+all speedup", "prefetch gain"},
	}
	ps := func(o gc.Options) func(*runSpec) {
		return func(s *runSpec) { s.host.PS, s.host.Opt = true, o }
	}
	noPrefetchOpt := gc.Optimized()
	noPrefetchOpt.Prefetch = false
	outs, err := grid(p, apps, threads, ps(gc.Vanilla()), ps(noPrefetchOpt), ps(gc.Optimized()))
	if err != nil {
		return nil, err
	}

	var speedups, prefetchGain []float64
	for i, app := range apps {
		vanilla, noPrefetch, all := outs[i][0].res, outs[i][1].res, outs[i][2].res

		sp := ratio(float64(vanilla.GC), float64(all.GC))
		pg := ratio(float64(noPrefetch.GC), float64(all.GC)) - 1
		if vanilla.GC > 0 && all.GC > 0 {
			speedups = append(speedups, sp)
			prefetchGain = append(prefetchGain, pg)
		}
		t.AddRow(app.Name, seconds(vanilla.GC), seconds(noPrefetch.GC), seconds(all.GC),
			sp, fmt.Sprintf("%+.1f%%", 100*pg))
	}
	rep := &Report{ID: "fig14", Title: "GC time for PS", Tables: []*metrics.Table{t}}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("+all speedup: %.2fx..%.2fx, avg %.2fx (paper: 0.61x..2.26x)",
			minOf(speedups), maxOf(speedups), mean(speedups)),
		fmt.Sprintf("prefetch benefit on PS: %+.1f%% avg (paper: +4.8%%)", 100*mean(prefetchGain)))
	return rep, nil
}
