package bench

import (
	"fmt"

	"nvmgc/internal/gc"
	"nvmgc/internal/heap"
	"nvmgc/internal/metrics"
)

// Fig10 reproduces Figure 10: GC time under +all with header-map budgets
// of 1/32, 1/16 and 1/8 of the heap — the scaled equivalents of the
// paper's 512MB/1GB/2GB maps against a 16GB heap. The paper finds the
// smallest size already sufficient for Renaissance (3.3% further gain)
// while Spark, whose map occupancy approaches 100%, gains 21.1% more from
// the largest.
func Fig10(p Params) (*Report, error) {
	threads := p.threads(16)
	apps, err := appList(p, defaultQuickApps)
	if err != nil {
		return nil, err
	}

	t := &metrics.Table{
		Title:   "GC time (s) vs header-map size (+all)",
		Columns: []string{"app", "512M-eq (1/32)", "1G-eq (1/16)", "2G-eq (1/8)", "occupancy@1/32"},
	}
	fracs := []int64{32, 16, 8}
	hc := heap.DefaultConfig()
	var variants []func(*runSpec)
	for _, frac := range fracs {
		variants = append(variants, func(s *runSpec) {
			s.host.Opt = gc.Optimized()
			s.host.Opt.HeaderMapBytes = hc.RegionBytes * int64(hc.HeapRegions) / frac
		})
	}
	outs, err := grid(p, apps, threads, variants...)
	if err != nil {
		return nil, err
	}

	var renGain, sparkGain []float64
	for i, app := range apps {
		var gcTimes []float64
		for _, out := range outs[i] {
			gcTimes = append(gcTimes, seconds(out.res.GC))
		}
		occ := peakOccupancy(outs[i][0])
		gain := ratio(gcTimes[0], gcTimes[2]) - 1
		if app.Profile.Suite == "spark" {
			sparkGain = append(sparkGain, gain)
		} else {
			renGain = append(renGain, gain)
		}
		t.AddRow(app.Name, gcTimes[0], gcTimes[1], gcTimes[2], fmt.Sprintf("%.0f%%", 100*occ))
	}
	rep := &Report{ID: "fig10", Title: "Results with different header map sizes", Tables: []*metrics.Table{t}}
	if len(renGain) > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"renaissance gain from 4x larger map: %+.1f%% (paper: +3.3%%)", 100*mean(renGain)))
	}
	if len(sparkGain) > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"spark gain from 4x larger map: %+.1f%% (paper: +21.1%%)", 100*mean(sparkGain)))
	}
	return rep, nil
}

// peakOccupancy estimates a G1 run's peak header-map occupancy.
// Occupancy at clean-up time is zero, so the estimate is the installs of
// the busiest collection over the map's entry count.
func peakOccupancy(out runOut) float64 {
	if out.hmEntries == 0 {
		return 0
	}
	var maxInstalls int64
	for _, c := range out.res.Collections {
		maxInstalls = max(maxInstalls, c.HeaderMapInstalls)
	}
	return min(float64(maxInstalls)/float64(out.hmEntries), 1)
}

// Fig11 reproduces Figure 11: GC time under different write-cache
// settings — bounded synchronous flushing (the default), unlimited cache,
// asynchronous flushing, and the all-DRAM reference. The paper finds the
// default 1/32 bound sufficient except for Spark's page-rank/kmeans
// (unlimited caching buys up to 2.00x GC and 11.0% app time), and async
// flushing costing only 6.9% thanks to non-temporal stores.
func Fig11(p Params) (*Report, error) {
	threads := p.threads(16)
	apps, err := appList(p, defaultQuickApps)
	if err != nil {
		return nil, err
	}

	t := &metrics.Table{
		Title:   "GC time (s) vs write-cache setting",
		Columns: []string{"app", "sync", "sync-unlimited", "async", "dram"},
	}
	unlimited, async := gc.Optimized(), gc.Optimized()
	unlimited.WriteCacheBytes = -1
	async.AsyncFlush = true
	outs, err := grid(p, apps, threads, withOpt(gc.Optimized()), withOpt(unlimited), withOpt(async), placed(dramHeap))
	if err != nil {
		return nil, err
	}

	var asyncCost []float64
	for i, app := range apps {
		syncRes, unl, asy, dram := outs[i][0].res, outs[i][1].res, outs[i][2].res, outs[i][3].res
		asyncCost = append(asyncCost, ratio(float64(asy.GC), float64(syncRes.GC))-1)
		t.AddRow(app.Name, seconds(syncRes.GC), seconds(unl.GC), seconds(asy.GC), seconds(dram.GC))
	}
	rep := &Report{ID: "fig11", Title: "Results with different write cache settings", Tables: []*metrics.Table{t}}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"async flushing cost vs sync: %+.1f%% avg (paper: +6.9%% while reclaiming DRAM early)",
		100*mean(asyncCost)))
	return rep, nil
}

// Fig12 reproduces Figure 12: GC-improvement-per-dollar of the NVM-aware
// optimizations (which add only the write-cache + header-map DRAM) versus
// simply buying DRAM for the whole heap, at the paper's prices of
// $7.81/GB DRAM and $3.01/GB NVM. The paper reports the optimizations
// being 9.58x more cost-effective for Spark.
func Fig12(p Params) (*Report, error) {
	threads := p.threads(16)
	apps, err := appList(p, defaultQuickApps)
	if err != nil {
		return nil, err
	}

	const dramPerGB, nvmPerGB = 7.81, 3.01
	hc := heap.DefaultConfig()
	heapGB := float64(hc.RegionBytes*int64(hc.HeapRegions)) / float64(1<<30)
	optExtraGB := heapGB/32 + heapGB/32 // write cache + header map in DRAM
	optCost := optExtraGB * dramPerGB
	dramCost := heapGB * (dramPerGB - nvmPerGB)

	t := &metrics.Table{
		Title:   "GC improvement per dollar (s/$, scaled heap)",
		Columns: []string{"app", "G1-Opt", "all-DRAM", "opt/dram ratio"},
	}
	outs, err := grid(p, apps, threads, asIs, withOpt(gc.Optimized()), placed(dramHeap))
	if err != nil {
		return nil, err
	}

	var ratios, sparkRatios []float64
	for i, app := range apps {
		vanilla, opt, dram := outs[i][0].res, outs[i][1].res, outs[i][2].res
		perDollarOpt := (seconds(vanilla.GC) - seconds(opt.GC)) / optCost
		perDollarDram := (seconds(vanilla.GC) - seconds(dram.GC)) / dramCost
		rr := ratio(perDollarOpt, perDollarDram)
		if vanilla.GC > 0 {
			ratios = append(ratios, rr)
			if app.Profile.Suite == "spark" {
				sparkRatios = append(sparkRatios, rr)
			}
		}
		t.AddRow(app.Name, perDollarOpt, perDollarDram, rr)
	}
	rep := &Report{ID: "fig12", Title: "Cost-efficiency analysis", Tables: []*metrics.Table{t}}
	if len(sparkRatios) > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"spark: optimizations are %.1fx more cost-effective than buying DRAM (paper: 9.58x)",
			mean(sparkRatios)))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("all apps: %.1fx average", mean(ratios)))
	return rep, nil
}
