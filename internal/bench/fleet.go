package bench

import (
	"fmt"

	"nvmgc/internal/fleet"
	"nvmgc/internal/gc"
	"nvmgc/internal/memsim"
	"nvmgc/internal/metrics"
)

// The fleet experiment scales the paper's Figure-8 story out: instead of
// one cassandra server under a closed-loop client, a sharded fleet of
// instances serves an open-loop stream with zipfian tenant skew, request
// hedging, and bounded retries. The question the table answers is the
// production one — how much p999/p9999 headroom does each collector
// configuration buy at a given fleet size and arrival rate — and the
// answer tracks the paper: tails, not throughput, separate the configs.

// fleetBenchSizes returns the fleet-size axis (smallest first; the
// largest size's instance runs are reused as prefixes for the smaller
// sizes, since instance i depends only on the config and the seed).
func fleetBenchSizes(quick bool) []int {
	if quick {
		return []int{2, 4}
	}
	return []int{2, 4, 8}
}

// fleetBenchRatesKQPS returns the fleet-wide arrival-rate axis.
func fleetBenchRatesKQPS(quick bool) []float64 {
	if quick {
		return []float64{240}
	}
	return []float64{120, 240}
}

// fleetBenchTraffic is the serving-side shape shared by every point:
// cassandra write-phase service times, 16-way instances, 256 zipfian
// tenants, a 2ms hedge trigger and a 2.5ms retry deadline — so vanilla's
// multi-millisecond pauses engage the hedging machinery and the fully
// optimized config's shorter pauses mostly do not.
func fleetBenchTraffic(kqps float64, seed uint64) fleet.Traffic {
	return fleet.Traffic{
		QPS:        kqps * 1000,
		Service:    60 * memsim.Microsecond,
		Servers:    16,
		Tenants:    256,
		Theta:      0.99,
		HedgeAfter: 2 * memsim.Millisecond,
		RetryAfter: 2500 * memsim.Microsecond,
		MaxRetries: 2,
		Seed:       seed,
	}
}

// FleetBench runs the collector-config x fleet-size x arrival-rate grid.
// Each config's instances are run once at the largest fleet size and
// reused for the smaller sizes (an instance's run is independent of the
// fleet it later serves in), so the grid costs configs x maxSize machine
// runs however many serving points it reports.
func FleetBench(p Params) (*Report, error) {
	type cfg struct {
		label string
		opt   gc.Options
	}
	persistent := gc.Optimized()
	persistent.Persist = gc.PersistADR
	cfgs := []cfg{
		{"vanilla", gc.Vanilla()},
		{"writecache", gc.WithWriteCache()},
		{"all", gc.Optimized()},
		{"persistent", persistent},
	}
	sizes := fleetBenchSizes(p.Quick)
	rates := fleetBenchRatesKQPS(p.Quick)
	maxSize := sizes[len(sizes)-1]

	tbl := &metrics.Table{
		Title: fmt.Sprintf("fleet tail latency: collector x fleet size x arrival rate (%d GC threads, cassandra-write instances)", p.threads(16)),
		Columns: []string{"config", "instances", "kqps", "requests", "hedged", "retries", "late",
			"mean (ms)", "p50 (ms)", "p99 (ms)", "p999 (ms)", "p9999 (ms)", "max (ms)"},
	}
	// p999 at the largest size and highest rate, per config, for the note.
	headline := map[string]float64{}
	mc := p.machineConfig(false)
	for _, c := range cfgs {
		insts, err := fleet.RunInstances(fleet.Config{
			Instances: maxSize,
			GCThreads: p.threads(16), Scale: p.scale(), Seed: p.seed(),
			Opt:        c.opt,
			QPS:        rates[0] * 1000,
			Parallel:   p.Parallel,
			EagerYield: mc.EagerYield,
			Tiers:      mc.Tiers,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: fleet %s: %w", c.label, err)
		}
		for _, size := range sizes {
			for _, kqps := range rates {
				sr, err := fleet.Serve(insts[:size], fleetBenchTraffic(kqps, p.seed()))
				if err != nil {
					return nil, fmt.Errorf("bench: fleet %s/%d/%g: %w", c.label, size, kqps, err)
				}
				s := sr.Summary
				tbl.AddRow(c.label, fmt.Sprint(size), fmt.Sprint(kqps),
					fmt.Sprint(s.Requests), fmt.Sprint(sr.Stats.Hedged),
					fmt.Sprint(sr.Stats.Retries), fmt.Sprint(sr.Stats.Late),
					s.MeanMs, s.P50ms, s.P99ms, s.P999ms, s.P9999ms, s.MaxMs)
				if size == maxSize && kqps == rates[len(rates)-1] {
					headline[c.label] = s.P999ms
				}
			}
		}
	}

	rep := &Report{
		ID:     "fleet",
		Title:  "Fleet-scale tail latency under open-loop load",
		Tables: []*metrics.Table{tbl},
	}
	if v, a := headline["vanilla"], headline["all"]; a > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"p999 at %d instances, %g kqps: %.2fx reduction from all optimizations (vanilla %.2fms -> %.2fms)",
			maxSize, rates[len(rates)-1], v/a, v, a))
	}
	if pa, a := headline["persistent"], headline["all"]; a > 0 {
		domain := "ADR"
		if mc.Tiers[1].EADR {
			domain = "eADR"
		}
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"persist barriers (%s) give back %.2fms of that p999 headroom (persistent %.2fms)", domain, pa-a, pa))
	}
	return rep, nil
}
