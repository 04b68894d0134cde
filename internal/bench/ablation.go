package bench

import (
	"fmt"

	"nvmgc/internal/gc"
	"nvmgc/internal/memsim"
	"nvmgc/internal/metrics"
	"nvmgc/internal/workload"
)

// The ablations isolate the design decisions the paper argues for in
// prose: depth-first traversal over breadth-first (Section 4.3),
// non-temporal write-back over cached write-back (Section 4.1), the
// region-grained flush unit (Section 4.2), and the header map's
// thread-count enable threshold (Section 3.3).

// AblTraversal compares depth-first (the collectors' default) against
// breadth-first heap traversal. The paper rejects BFS: its deterministic
// prefetch distance does not pay for the application-locality loss of
// scattering parent/child objects.
func AblTraversal(p Params) (*Report, error) {
	threads := p.threads(16)
	apps, err := scenarios(traversalApps)
	if err != nil {
		return nil, err
	}
	if p.Quick {
		apps = apps[:1]
	}
	t := &metrics.Table{
		Title:   "DFS vs BFS traversal (+all, NVM)",
		Columns: []string{"app", "order", "gc (s)", "app (s)", "total (s)"},
	}
	rep := &Report{ID: "abl-traversal", Title: "Traversal-order ablation (Section 4.3)", Tables: []*metrics.Table{t}}
	var specs []runSpec
	for i, app := range apps {
		for _, bfs := range []bool{false, true} {
			opt := gc.Optimized()
			opt.BFS = bfs
			specs = append(specs, runSpec{app: app, host: p.host(opt), threads: threads, scale: p.scale(), seed: p.seed() + uint64(i)})
		}
	}
	outs, err := runAll(p, specs)
	if err != nil {
		return nil, err
	}
	for i, app := range apps {
		var appTimes [2]float64
		for bi, bfs := range []bool{false, true} {
			res := outs[2*i+bi].res
			order := "dfs"
			if bfs {
				order = "bfs"
			}
			appTimes[bi] = seconds(res.App)
			t.AddRow(app.Name, order, seconds(res.GC), seconds(res.App), seconds(res.Total))
		}
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%s: BFS changes post-GC application time by %+.1f%% (the paper predicts a locality penalty)",
			app.Name, 100*(appTimes[1]-appTimes[0])/appTimes[0]))
	}
	return rep, nil
}

// AblNonTemporal compares cached versus non-temporal write-back of the
// write cache. Section 4.1: streaming stores avoid the read-for-ownership
// traffic and cache pollution of cached stores, so the write-only
// sub-phase should shrink.
func AblNonTemporal(p Params) (*Report, error) {
	threads := p.threads(16)
	apps, err := scenarios(writeBackApps)
	if err != nil {
		return nil, err
	}
	if p.Quick {
		apps = apps[:1]
	}
	t := &metrics.Table{
		Title:   "Write-back path (+writecache, NVM)",
		Columns: []string{"app", "store path", "gc (s)", "write-only phase (ms)"},
	}
	rep := &Report{ID: "abl-nt", Title: "Non-temporal write-back ablation (Section 4.1)", Tables: []*metrics.Table{t}}
	var specs []runSpec
	for i, app := range apps {
		for _, nt := range []bool{false, true} {
			specs = append(specs, runSpec{
				app: app, host: p.host(gc.Options{WriteCache: true, NonTemporal: nt}),
				threads: threads, scale: p.scale(), seed: p.seed() + uint64(i),
			})
		}
	}
	outs, err := runAll(p, specs)
	if err != nil {
		return nil, err
	}
	for i, app := range apps {
		var gcTimes [2]float64
		for bi, nt := range []bool{false, true} {
			res := outs[2*i+bi].res
			var wo memsim.Time
			for _, c := range res.Collections {
				wo += c.WriteOnly
			}
			path := "cached"
			if nt {
				path = "non-temporal"
			}
			gcTimes[bi] = seconds(res.GC)
			t.AddRow(app.Name, path, seconds(res.GC), ms(wo))
		}
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%s: non-temporal write-back changes GC time by %+.1f%%",
			app.Name, 100*(gcTimes[1]-gcTimes[0])/gcTimes[0]))
	}
	return rep, nil
}

// AblFlushChunk sweeps the asynchronous-flush unit. Section 4.2 notes
// that finer tracking/flushing (e.g. 4 KiB pages) is possible but costs
// more maintenance; region-grained flushing in moderate chunks is the
// paper's choice.
func AblFlushChunk(p Params) (*Report, error) {
	threads := p.threads(16)
	app, err := workload.ScenarioByName("page-rank")
	if err != nil {
		return nil, err
	}
	t := &metrics.Table{
		Title:   "Asynchronous flush chunk size (page-rank, +all+async, NVM)",
		Columns: []string{"chunk", "gc (s)", "async flushes"},
	}
	rep := &Report{ID: "abl-flush-chunk", Title: "Flush-granularity ablation (Section 4.2)", Tables: []*metrics.Table{t}}
	chunks := []int64{4 << 10, 16 << 10, 64 << 10}
	if p.Quick {
		chunks = chunks[:2]
	}
	var specs []runSpec
	for _, chunk := range chunks {
		opt := gc.Optimized()
		opt.AsyncFlush = true
		opt.FlushChunkBytes = chunk
		specs = append(specs, runSpec{app: app, host: p.host(opt), threads: threads, scale: p.scale(), seed: p.seed()})
	}
	outs, err := runAll(p, specs)
	if err != nil {
		return nil, err
	}
	for ci, chunk := range chunks {
		res := outs[ci].res
		var async int64
		for _, c := range res.Collections {
			async += c.RegionsFlushedAsync
		}
		t.AddRow(fmt.Sprintf("%dK", chunk>>10), seconds(res.GC), async)
	}
	return rep, nil
}

// AblHeaderMapThreshold shows why the header map only enables beyond a
// thread threshold (Section 3.3): below saturation the extra DRAM lookup
// latency is pure overhead; at saturation the removed NVM writes free
// read bandwidth.
func AblHeaderMapThreshold(p Params) (*Report, error) {
	app, err := workload.ScenarioByName("page-rank")
	if err != nil {
		return nil, err
	}
	t := &metrics.Table{
		Title:   "Header map on/off vs GC threads (page-rank, write cache enabled, NVM)",
		Columns: []string{"threads", "map off (s)", "map on (s)", "map benefit"},
	}
	rep := &Report{ID: "abl-hm-threads", Title: "Header-map threshold ablation (Section 3.3)", Tables: []*metrics.Table{t}}
	threadSet := []int{2, 4, 8, 16, 28}
	if p.Quick {
		threadSet = []int{2, 16}
	}
	var specs []runSpec
	for _, th := range threadSet {
		off := gc.WithWriteCache()
		on := gc.Optimized()
		on.HeaderMapMinThreads = 1 // force-enable even at low thread counts
		specs = append(specs,
			runSpec{app: app, host: p.host(off), threads: th, scale: p.scale(), seed: p.seed()},
			runSpec{app: app, host: p.host(on), threads: th, scale: p.scale(), seed: p.seed()})
	}
	outs, err := runAll(p, specs)
	if err != nil {
		return nil, err
	}
	var lowBenefit, highBenefit float64
	for ti, th := range threadSet {
		res1, res2 := outs[2*ti].res, outs[2*ti+1].res
		benefit := ratio(float64(res1.GC), float64(res2.GC))
		if th <= 4 {
			lowBenefit = benefit
		} else {
			highBenefit = benefit
		}
		t.AddRow(th, seconds(res1.GC), seconds(res2.GC), benefit)
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"map benefit at low threads %.2fx vs high threads %.2fx — the paper enables it only at >= 8 threads",
		lowBenefit, highBenefit))
	return rep, nil
}
