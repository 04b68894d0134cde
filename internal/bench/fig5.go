package bench

import (
	"fmt"

	"nvmgc/internal/gc"
	"nvmgc/internal/metrics"
	"nvmgc/internal/workload"
)

// Fig5 reproduces Figure 5: GC time for all 26 applications under
// {vanilla, +writecache, +all} on NVM, plus the vanilla-on-DRAM and
// young-gen-on-DRAM reference points. The paper reports +all improving GC
// by 1.69x on average (up to 2.69x, 23 of 26 apps), +writecache alone
// 1.17x, and the DRAM/NVM GC gap shrinking from 4.21x to 2.28x.
func Fig5(p Params) (*Report, error) {
	threads := p.threads(16)
	apps, err := appList(p, defaultQuickApps)
	if err != nil {
		return nil, err
	}

	t := &metrics.Table{
		Title: "GC time (s) per application and configuration",
		Columns: []string{"app", "vanilla", "+writecache", "+all",
			"vanilla-dram", "young-gen-dram", "+all speedup"},
	}
	specs := make([]runSpec, 0, 5*len(apps))
	for i, app := range apps {
		seed := p.seed() + uint64(i)
		base := runSpec{app: app, host: p.host(gc.Vanilla()), threads: threads, scale: p.scale(), seed: seed}

		wcSpec := base
		wcSpec.host.Opt = gc.WithWriteCache()
		allSpec := base
		allSpec.host.Opt = gc.Optimized()
		dramSpec := base
		dramSpec.host.Heap.Placement = dramHeap
		ygSpec := base
		ygSpec.host.Heap.Placement = youngOnDRAM
		specs = append(specs, base, wcSpec, allSpec, dramSpec, ygSpec)
	}
	outs, err := runAll(p, specs)
	if err != nil {
		return nil, err
	}

	var spAll, spWC, gapVanilla, gapOpt []float64
	improved := 0
	for i, app := range apps {
		vanilla, wc, all := outs[5*i].res, outs[5*i+1].res, outs[5*i+2].res
		dram, yg := outs[5*i+3].res, outs[5*i+4].res

		sp := ratio(float64(vanilla.GC), float64(all.GC))
		// Apps whose configuration triggers no GC at the chosen scale
		// are reported but excluded from the aggregates.
		if vanilla.GC > 0 && all.GC > 0 {
			if sp > 1 {
				improved++
			}
			spAll = append(spAll, sp)
			spWC = append(spWC, ratio(float64(vanilla.GC), float64(wc.GC)))
			if dram.GC > 0 {
				gapVanilla = append(gapVanilla, ratio(float64(vanilla.GC), float64(dram.GC)))
				gapOpt = append(gapOpt, ratio(float64(all.GC), float64(dram.GC)))
			}
		}

		t.AddRow(app.Name, seconds(vanilla.GC), seconds(wc.GC), seconds(all.GC),
			seconds(dram.GC), seconds(yg.GC), sp)
	}

	rep := &Report{ID: "fig5", Title: "GC time for various applications", Tables: []*metrics.Table{t}}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("%d of %d GC-active apps improved by +all; avg speedup %.2fx, max %.2fx (paper: 23/26, avg 1.69x, max 2.69x)",
			improved, len(spAll), mean(spAll), maxOf(spAll)),
		fmt.Sprintf("+writecache alone: avg %.2fx, max %.2fx (paper: avg 1.17x, max 2.08x)", mean(spWC), maxOf(spWC)),
		fmt.Sprintf("DRAM/NVM GC gap: %.2fx vanilla vs %.2fx with +all (paper: 4.21x -> 2.28x)",
			mean(gapVanilla), mean(gapOpt)),
	)
	return rep, nil
}

// Fig6 reproduces Figure 6: the consumed NVM bandwidth during GC for
// G1-Vanilla vs G1-Opt at 56 GC threads. The paper reports a 55% average
// improvement (69% for Spark).
func Fig6(p Params) (*Report, error) {
	threads := p.threads(56)
	apps, err := appList(p, defaultQuickApps)
	if err != nil {
		return nil, err
	}

	t := &metrics.Table{
		Title:   fmt.Sprintf("Average NVM bandwidth during GC (MB/s), %d GC threads", threads),
		Columns: []string{"app", "G1-Vanilla", "G1-Opt", "improvement"},
	}
	outs, err := runAll(p, vanillaOptPairs(apps, threads, p))
	if err != nil {
		return nil, err
	}
	var imps, sparkImps []float64
	for i, app := range apps {
		vanilla, opt := outs[2*i].res, outs[2*i+1].res
		bv := gcBandwidthMBps(vanilla.Collections)
		bo := gcBandwidthMBps(opt.Collections)
		imp := ratio(bo, bv) - 1
		if bv > 0 && bo > 0 {
			imps = append(imps, imp)
			if app.Profile.Suite == "spark" {
				sparkImps = append(sparkImps, imp)
			}
		}
		t.AddRow(app.Name, bv, bo, fmt.Sprintf("%+.1f%%", 100*imp))
	}
	rep := &Report{ID: "fig6", Title: "NVM bandwidth during GC", Tables: []*metrics.Table{t}}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("avg bandwidth improvement %+.1f%% (paper: +55.0%%)", 100*mean(imps)))
	if len(sparkImps) > 0 {
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("spark avg %+.1f%% (paper: +69.3%%)", 100*mean(sparkImps)))
	}
	return rep, nil
}

// Fig9 reproduces Figure 9: application execution time under G1-Opt vs
// G1-Vanilla. Spark jobs improve 3.2-6.9%; most Renaissance apps barely
// change since GC is a small share of their run.
func Fig9(p Params) (*Report, error) {
	threads := p.threads(16)
	apps, err := appList(p, defaultQuickApps)
	if err != nil {
		return nil, err
	}

	t := &metrics.Table{
		Title:   "Application execution time (s)",
		Columns: []string{"app", "G1-Vanilla", "G1-Opt", "reduction"},
	}
	outs, err := runAll(p, vanillaOptPairs(apps, threads, p))
	if err != nil {
		return nil, err
	}
	var sparkRed []float64
	for i, app := range apps {
		vanilla, opt := outs[2*i].res, outs[2*i+1].res
		red := 1 - ratio(float64(opt.Total), float64(vanilla.Total))
		if app.Profile.Suite == "spark" {
			sparkRed = append(sparkRed, red)
		}
		t.AddRow(app.Name, seconds(vanilla.Total), seconds(opt.Total), fmt.Sprintf("%+.1f%%", 100*red))
	}
	rep := &Report{ID: "fig9", Title: "Application time reduction", Tables: []*metrics.Table{t}}
	if len(sparkRed) > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"spark execution-time reduction: %.1f%%..%.1f%% (paper: 3.2%%..6.9%%)",
			100*minOf(sparkRed), 100*maxOf(sparkRed)))
	}
	return rep, nil
}

// vanillaOptPairs builds the (vanilla, optimized) spec pair per app used
// by the figures that compare the two configurations.
func vanillaOptPairs(apps []workload.Spec, threads int, p Params) []runSpec {
	specs := make([]runSpec, 0, 2*len(apps))
	for i, app := range apps {
		base := runSpec{app: app, host: p.host(gc.Vanilla()), threads: threads, scale: p.scale(), seed: p.seed() + uint64(i)}
		optSpec := base
		optSpec.host.Opt = gc.Optimized()
		specs = append(specs, base, optSpec)
	}
	return specs
}

func maxOf(v []float64) float64 {
	m := 0.0
	for i, x := range v {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

func minOf(v []float64) float64 {
	m := 0.0
	for i, x := range v {
		if i == 0 || x < m {
			m = x
		}
	}
	return m
}
