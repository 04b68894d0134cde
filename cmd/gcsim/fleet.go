package main

import (
	"fmt"
	"io"

	"nvmgc/internal/fleet"
	"nvmgc/internal/memsim"
)

// fleetOptions carries the -fleet-* flags plus the shared run options
// (collector config, threads, scale, seed, scheduler, topology, faults).
type fleetOptions struct {
	instances int
	qps       float64
	hedgeUS   int64
	retryUS   int64
	retries   int
	workload  string
	o         options
	parallel  int
}

// fleetConfig projects the flags onto a fleet.Config; Validate on the
// result is the up-front flag validation.
func (fo fleetOptions) fleetConfig() fleet.Config {
	return fleet.Config{
		Instances:  fo.instances,
		Scenario:   fo.workload,
		GCThreads:  fo.o.threads,
		Scale:      fo.o.scale,
		Seed:       fo.o.seed,
		Opt:        fo.o.host.Opt,
		QPS:        fo.qps,
		HedgeAfter: memsim.Time(fo.hedgeUS) * memsim.Microsecond,
		RetryAfter: memsim.Time(fo.retryUS) * memsim.Microsecond,
		MaxRetries: fo.retries,
		Parallel:   fo.parallel,
		EagerYield: fo.o.host.Machine.EagerYield,
		Tiers:      fo.o.host.Machine.Tiers,
	}
}

// runFleet executes the fleet serving simulator: N instances of the
// selected workload under the selected collector config, an open-loop
// zipfian-skewed request stream over them, and the fleet-wide latency
// distribution.
func runFleet(w io.Writer, fo fleetOptions) error {
	cfg := fo.fleetConfig()
	res, err := fleet.Run(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "fleet: %d x %s instances, g1 %s, %d GC threads (virtual time)\n",
		fo.instances, fo.workload, fo.o.host.Opt.Label(), fo.o.threads)
	fmt.Fprintf(w, "open loop: %.0f qps fleet-wide, hedge after %.3fms, retry after %.3fms (max %d)\n\n",
		fo.qps, ms(cfg.HedgeAfter), ms(cfg.RetryAfter), fo.retries)

	for _, in := range res.Instances {
		fmt.Fprintf(w, "inst %2d: window %9.3fms  %2d gcs  max pause %7.3fms  pause time %7.3fms",
			in.ID, ms(in.Window), in.GCs, ms(in.MaxPause), ms(pauseTotal(in)))
		if in.Ops > 0 {
			fmt.Fprintf(w, "  %d ops", in.Ops)
		}
		if fo.o.faulty {
			fmt.Fprintf(w, "  %d transient faults, %d regions retired", in.Faults.TransientFaults, in.Faults.RegionsRetired)
		}
		fmt.Fprintln(w)
	}

	s := res.Summary
	st := res.Stats
	fmt.Fprintf(w, "\nrequests: %d served over %.3fms (%d hedged, %d hedge wins, %d retried, %d late)\n",
		st.Requests, ms(res.Window), st.Hedged, st.HedgeWins, st.Retries, st.Late)
	fmt.Fprintf(w, "latency:  mean %.3fms  p50 %.3fms  p99 %.3fms  p999 %.3fms  p9999 %.3fms  max %.3fms\n",
		s.MeanMs, s.P50ms, s.P99ms, s.P999ms, s.P9999ms, s.MaxMs)
	return nil
}

func pauseTotal(in fleet.Instance) memsim.Time {
	var tot memsim.Time
	for _, p := range in.Pauses {
		tot += p.End - p.Start
	}
	return tot
}
