package bench

import (
	"fmt"
	"strings"

	"nvmgc/internal/cassandra"
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
	// on runs vanilla G1 with the whole heap on the named tier.
	on := func(tier string, threads int, trace bool) func(*runSpec) {
		return func(s *runSpec) {
			s.threads = threads
			s.host.Machine = p.machineConfig(trace)
			if tier == "dram" {
				s.host.Heap.Placement = dramHeap
			}
		}
	}
	// Panels (a) and (b) trace a run on each tier; (c) and (d) sweep the
	// GC threads on each.
	traced := []string{"dram", "nvm"}
	scaled := []string{"nvm", "dram"}
	threadSet := []int{8, 20, 40}
	if p.Quick {
		threadSet = []int{8, 20}
	}
	var variants []func(*runSpec)
	for _, tier := range traced {
		variants = append(variants, on(tier, threads, true))
	}
	if scalability {
		for _, tier := range scaled {
			for _, th := range threadSet {
				variants = append(variants, on(tier, th, false))
			}
		}
	}
	outs, err := grid(p, []workload.Spec{spec}, threads, variants...)
	if err != nil {
		return nil, err
	}
	runs := outs[0]

	for ti, tier := range traced {
		// The traced window is the mutation phase: [end - Total, end).
		m := runs[ti].M
		end := m.Now()
		start := end - runs[ti].res.Total
		dev := tierDevice(m, tier)
		rep.Tables = append(rep.Tables, traceTable(
			fmt.Sprintf("(%c) %s bandwidth atop %s", 'a'+ti, app, strings.ToUpper(tier)),
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
				"%s: avg bandwidth during GC %.0f MB/s (r %.0f / w %.0f) vs whole-run %.0f MB/s (r %.0f / w %.0f)",
				strings.ToUpper(tier), gcT/n, gcR/n, gcW/n, allT, allR, allW))
		}
	}

	if scalability {
		sweeps := runs[len(traced):]
		for si, tier := range scaled {
			t := &metrics.Table{
				Title:   fmt.Sprintf("(%c) bandwidth vs scalability (%s)", 'c'+si, strings.ToUpper(tier)),
				Columns: []string{"threads", "avg GC bandwidth (MB/s)", "GC time (s)"},
			}
			for _, th := range threadSet {
				res := sweeps[0].res
				sweeps = sweeps[1:]
				t.AddRow(th, gcBandwidthMBps(res.Collections, tier), seconds(res.GC))
			}
			rep.Tables = append(rep.Tables, t)
		}
	}
	return rep, nil
}
