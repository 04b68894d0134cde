package bench

import (
	"fmt"

	"nvmgc/internal/cassandra"
	"nvmgc/internal/gc"
	"nvmgc/internal/memsim"
	"nvmgc/internal/metrics"
	"nvmgc/internal/workload"
)

// traceTable renders a device bandwidth series within [from, to),
// downsampled to at most maxRows bins, with a column flagging whether a
// stop-the-world GC pause was active during the bin.
func traceTable(title string, m *memsim.Machine, dev *memsim.Device, from, to memsim.Time, maxRows int) *metrics.Table {
	t := &metrics.Table{
		Title:   title,
		Columns: []string{"t (ms)", "read (MB/s)", "write (MB/s)", "total (MB/s)", "gc"},
	}
	tr := dev.Trace()
	if tr == nil || to <= from {
		return t
	}
	pauses := cassandra.PauseIntervals(m, from, to)
	gcActive := func(a, b memsim.Time) string {
		for _, p := range pauses {
			if p.Start < b && a < p.End {
				return "*"
			}
		}
		return ""
	}
	span := to - from
	bins := maxRows
	if bins < 1 {
		bins = 1
	}
	binW := span / memsim.Time(bins)
	if binW < tr.Bucket() {
		binW = tr.Bucket()
	}
	for s := from; s < to; s += binW {
		e := s + binW
		if e > to {
			e = to
		}
		r, w, tot := tr.Window(s, e)
		t.AddRow(ms(s-from), r, w, tot, gcActive(s, e))
	}
	return t
}

// Fig2 reproduces Figure 2 for page-rank: (a,b) bandwidth traces on DRAM
// and NVM with GC intervals demarcated, and (c,d) the GC-thread
// scalability of bandwidth and accumulated GC time. The paper's findings:
// DRAM bandwidth *rises* during GC while NVM bandwidth *collapses*, and
// NVM bandwidth/GC-time stop improving beyond 8 threads while DRAM keeps
// scaling.
func Fig2(p Params) (*Report, error) {
	return bandwidthFigure("fig2", "page-rank", true, p)
}

// Fig3 reproduces Figure 3: bandwidth traces for als, whose NVM bandwidth
// during GC exceeds its application phase (the app does not saturate NVM,
// so its execution time is barely hurt).
func Fig3(p Params) (*Report, error) {
	return bandwidthFigure("fig3", "als", false, p)
}

func bandwidthFigure(id, app string, scalability bool, p Params) (*Report, error) {
	threads := p.threads(16)
	rows := 30
	if p.Quick {
		rows = 10
	}
	spec, err := workload.ScenarioByName(app)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: id, Title: "Bandwidth statistics for " + app}
	// on runs vanilla G1 with the whole heap on the kind's device.
	on := func(kind memsim.Kind, threads int, trace bool) runSpec {
		h := p.host(gc.Vanilla())
		h.Machine = p.machineConfig(trace)
		if kind == memsim.DRAM {
			h.Heap.Placement = dramHeap
		}
		return runSpec{app: spec, host: h, threads: threads, scale: p.scale(), seed: p.seed()}
	}

	kinds := []memsim.Kind{memsim.DRAM, memsim.NVM}
	var traced []runSpec
	for _, kind := range kinds {
		traced = append(traced, on(kind, threads, true))
	}
	traces, err := runAll(p, traced)
	if err != nil {
		return nil, err
	}
	for ki, kind := range kinds {
		// The traced window is the mutation phase: [end - Total, end).
		m := traces[ki].M
		end := m.Now()
		start := end - traces[ki].res.Total
		dev := m.Device(kind)
		rep.Tables = append(rep.Tables, traceTable(
			fmt.Sprintf("(%s) %s bandwidth atop %v", map[memsim.Kind]string{memsim.DRAM: "a", memsim.NVM: "b"}[kind], app, kind),
			m, dev, start, end, rows))

		// Quantify the GC-vs-app bandwidth contrast.
		pauses := cassandra.PauseIntervals(m, start, end)
		var gcR, gcW, gcT, n float64
		for _, pi := range pauses {
			r, w, t := dev.Trace().Window(pi.Start, pi.End)
			gcR += r
			gcW += w
			gcT += t
			n++
		}
		allR, allW, allT := dev.Trace().Window(start, end)
		if n > 0 {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"%v: avg bandwidth during GC %.0f MB/s (r %.0f / w %.0f) vs whole-run %.0f MB/s (r %.0f / w %.0f)",
				kind, gcT/n, gcR/n, gcW/n, allT, allR, allW))
		}
	}

	if scalability {
		threadSet := []int{8, 20, 40}
		if p.Quick {
			threadSet = []int{8, 20}
		}
		scaleKinds := []memsim.Kind{memsim.NVM, memsim.DRAM}
		var specs []runSpec
		for _, kind := range scaleKinds {
			for _, th := range threadSet {
				specs = append(specs, on(kind, th, false))
			}
		}
		outs, err := runAll(p, specs)
		if err != nil {
			return nil, err
		}
		for ki, kind := range scaleKinds {
			t := &metrics.Table{
				Title:   fmt.Sprintf("(%s) bandwidth vs scalability (%v)", map[memsim.Kind]string{memsim.NVM: "c", memsim.DRAM: "d"}[kind], kind),
				Columns: []string{"threads", "avg GC bandwidth (MB/s)", "GC time (s)"},
			}
			for ti, th := range threadSet {
				res := outs[ki*len(threadSet)+ti].res
				bw := 0.0
				if kind == memsim.NVM {
					bw = gcBandwidthMBps(res.Collections)
				} else {
					var bytes int64
					var pause memsim.Time
					for _, c := range res.Collections {
						bytes += c.DRAM.Total()
						pause += c.Pause
					}
					if pause > 0 {
						bw = float64(bytes) / 1e6 / seconds(pause)
					}
				}
				t.AddRow(th, bw, seconds(res.GC))
			}
			rep.Tables = append(rep.Tables, t)
		}
	}
	return rep, nil
}
