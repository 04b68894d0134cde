package bench

import (
	"fmt"

	"nvmgc/internal/cassandra"
	"nvmgc/internal/gc"
	"nvmgc/internal/metrics"
	"nvmgc/internal/par"
	"nvmgc/internal/workload"
)

// Fig8 reproduces Figure 8: Cassandra tail latency (p95/p99) as a
// function of client throughput, for read and write phases, with the
// vanilla and the NVM-aware G1. At the paper's top setting (130 KQPS) the
// optimized GC improves p95/p99 read latency by 5.09x/4.88x and write
// latency by 2.74x/2.54x.
func Fig8(p Params) (*Report, error) {
	threads := p.threads(16)
	throughputs := []float64{10, 40, 70, 100, 130}
	if p.Quick {
		throughputs = []float64{10, 130}
	}
	phases := []cassandra.Phase{cassandra.WritePhase(), cassandra.ReadPhase()}
	if p.Quick {
		phases = phases[:1]
	}

	rep := &Report{ID: "fig8", Title: "Tail latency reduction for Cassandra"}
	// One independent machine per (phase, collector) curve; fan the four
	// curves out over the host pool.
	type curveJob struct {
		phase cassandra.Phase
		opt   gc.Options
	}
	var jobs []curveJob
	for _, phase := range phases {
		jobs = append(jobs, curveJob{phase, gc.Vanilla()}, curveJob{phase, gc.Optimized()})
	}
	curves, err := par.Map(len(jobs), p.Parallel, func(i int) ([]cassandra.StressResult, error) {
		job := jobs[i]
		host, err := workload.NewHost(p.host(job.opt))
		if err != nil {
			return nil, err
		}
		pauses, window, err := cassandra.RunPhase(host.Col, job.phase, workload.Config{
			GCThreads: threads, Scale: p.scale(), Seed: p.seed(),
		})
		if err != nil {
			return nil, err
		}
		rs := cassandra.Stress(pauses, window, job.phase, throughputs, p.seed())
		return rs, cassandra.Validate(rs)
	})
	if err != nil {
		return nil, err
	}
	for pi, phase := range phases {
		vanilla, opt := curves[2*pi], curves[2*pi+1]

		t := &metrics.Table{
			Title: fmt.Sprintf("%s operations: latency (ms) vs throughput", phase.Name),
			Columns: []string{"KQPS", "vanilla p95", "vanilla p99",
				"opt p95", "opt p99"},
		}
		for i := range throughputs {
			t.AddRow(throughputs[i], vanilla[i].P95ms, vanilla[i].P99ms, opt[i].P95ms, opt[i].P99ms)
		}
		rep.Tables = append(rep.Tables, t)

		last := len(throughputs) - 1
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%s @%0.0f KQPS: p95 improved %.2fx, p99 %.2fx (paper: read 5.09x/4.88x, write 2.74x/2.54x)",
			phase.Name, throughputs[last],
			ratio(vanilla[last].P95ms, opt[last].P95ms),
			ratio(vanilla[last].P99ms, opt[last].P99ms)))
	}
	return rep, nil
}
