package bench

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"nvmgc/internal/gc"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
	"nvmgc/internal/metrics"
	"nvmgc/internal/par"
	"nvmgc/internal/workload"
)

// The fault sweep is the media-error companion to the crash sweep: it runs
// a churning mutator over an NVM heap whose tier carries a wear-out fault
// model (per-line write thresholds, transient read faults, whole-tier
// degradation), and measures how long each collector configuration
// survives as lines die — GC throughput, regions retired, copies
// re-routed, tier fallbacks, the media write-amplification factor, and the
// projected lifetime of the tier at the observed wear rate. Points either
// survive the full churn budget or end in the diagnosable
// gc.ErrTierExhausted; any other failure is a bug and fails the sweep.

// faultSweepConfig is one collector configuration swept across wear
// thresholds.
type faultSweepConfig struct {
	name string
	opt  gc.Options
}

func faultSweepConfigs(quick bool) []faultSweepConfig {
	all := gc.Optimized()
	all.HeaderMapMinThreads = 1
	cfgs := []faultSweepConfig{
		{name: "vanilla", opt: gc.Vanilla()},
		{name: "writecache", opt: gc.WithWriteCache()},
		{name: "all", opt: all},
	}
	if quick {
		return []faultSweepConfig{cfgs[0], cfgs[2]}
	}
	return cfgs
}

// faultSweepThresholds are the mean per-line write budgets swept. The heap
// below recycles its regions every few collections, so even the largest
// budget wears lines out within the churn budget.
func faultSweepThresholds(quick bool) []int64 {
	if quick {
		return []int64{8, 32}
	}
	return []int64{8, 16, 32, 64}
}

// newFaultSweepEnv builds one fresh, fully deterministic host: a machine
// whose NVM tier carries the point's wear model, a small all-NVM heap,
// and a G1 collector. The model seed folds the sweep seed so re-seeding
// the sweep re-seeds every fault draw.
func newFaultSweepEnv(fc faultSweepConfig, threshold int64, seed uint64) (workload.Host, error) {
	s := workload.HostSpec{Machine: Params{}.machineConfig(false), Heap: heap.DefaultConfig(), Opt: fc.opt}
	s.Machine.LLCBytes = 1 << 17
	s.Machine.Tiers = memsim.WithFault(s.Machine.Tiers, memsim.FaultModel{
		Seed:                seed ^ 0xfa17_0000,
		TransientReadPPM:    2000,
		WearThresholdMean:   threshold,
		WearThresholdSpread: threshold / 4,
		DegradeUETrip:       24,
	})
	hc := &s.Heap
	hc.RegionBytes = 16 << 10
	hc.HeapRegions = 128
	hc.CacheRegions = 32
	hc.EdenRegions = 32
	hc.SurvivorRegions = 16
	hc.AuxBytes = 2 << 20
	hc.RootSlots = 1 << 13
	hc.Poison = true
	return workload.NewHost(s)
}

// faultChurn drives rounds of allocate+collect until the tier is exhausted
// or the round budget runs out, and reports what the run cost and
// survived. Root pressure is bounded by a ring: young roots beyond the
// ring capacity release the oldest, so survivors age out instead of
// pinning the whole pool.
type faultChurnOut struct {
	gcs       int
	exhausted bool
	survival  memsim.Time
	faults    gc.FaultCosts
	copied    int64
	pause     memsim.Time
}

func faultChurn(h *heap.Heap, m *memsim.Machine, g gc.Collector, rounds, threads int, seed uint64) (faultChurnOut, error) {
	node, err := h.Klasses.Define("node", 6, []int32{2, 3})
	if err != nil {
		return faultChurnOut{}, err
	}
	arr, err := h.Klasses.DefineArray("prim[]", false)
	if err != nil {
		return faultChurnOut{}, err
	}
	holder, err := h.Klasses.Define("holder", 4, []int32{2})
	if err != nil {
		return faultChurnOut{}, err
	}

	var out faultChurnOut
	var holders []heap.Address
	var ring []heap.Address // root-slot ring for young roots
	const ringCap = 192
	next := 0
	var perr error
	m.Run(1, func(w *memsim.Worker) {
		for i := 0; i < 24; i++ {
			a, ok := h.AllocateOld(w, holder, 4)
			if !ok {
				perr = fmt.Errorf("fault sweep: old allocation failed at start")
				return
			}
			if _, ok := h.Roots.Add(w, a); !ok {
				perr = fmt.Errorf("fault sweep: root set full at start")
				return
			}
			holders = append(holders, a)
		}
	})
	if perr != nil {
		return faultChurnOut{}, perr
	}

	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewPCG(seed, uint64(round+1)))
		m.Run(1, func(w *memsim.Worker) {
			var prev heap.Address
			for i := 0; i < 1500; i++ {
				var a heap.Address
				var ok bool
				if rng.Float64() < 0.1 {
					a, ok = h.AllocateEden(w, arr, 32)
				} else {
					a, ok = h.AllocateEden(w, node, 6)
					if ok {
						h.Poke(heap.SlotAddr(a, 4), uint64(round)<<20|uint64(i))
						if prev != 0 && rng.Float64() < 0.6 {
							h.SetRef(w, a, 2, prev)
						}
						prev = a
					}
				}
				if !ok {
					break
				}
				if rng.Float64() < 0.06 {
					if rng.Float64() < 0.5 {
						h.SetRef(w, holders[rng.IntN(len(holders))], 2, a)
					} else if len(ring) < ringCap {
						if slot, ok := h.Roots.Add(w, a); ok {
							ring = append(ring, slot)
						}
					} else {
						h.Roots.Clear(w, ring[next])
						if slot, ok := h.Roots.Add(w, a); ok {
							ring[next] = slot
							next = (next + 1) % ringCap
						}
					}
				}
			}
		})
		s, err := g.Collect(threads)
		if err != nil {
			if errors.Is(err, gc.ErrTierExhausted) {
				out.exhausted = true
				break
			}
			return faultChurnOut{}, err
		}
		out.gcs++
		out.faults = s.Faults.Add(out.faults)
		out.copied += s.BytesCopied
		out.pause += s.Pause
	}
	out.survival = m.Now()
	return out, nil
}

// FaultSweep runs the media-fault campaign. Every data point builds its
// own machine and is deterministic given the seed, so points fan out over
// the host pool without affecting any result.
func FaultSweep(p Params) (*Report, error) {
	threads := p.threads(4)
	cfgs := faultSweepConfigs(p.Quick)
	thresholds := faultSweepThresholds(p.Quick)
	rounds := 48
	if p.Quick {
		rounds = 20
	}

	type point struct {
		cfg int
		th  int64
	}
	var points []point
	for ci := range cfgs {
		for _, th := range thresholds {
			points = append(points, point{cfg: ci, th: th})
		}
	}
	type pointOut struct {
		churn    faultChurnOut
		fs       memsim.FaultStats
		degraded bool
		retired  int
		writeAmp float64
		lifetime float64 // projected virtual seconds to mean wear-out
	}
	outs, err := par.Map(len(points), p.Parallel, func(i int) (pointOut, error) {
		pt := points[i]
		fc := cfgs[pt.cfg]
		host, err := newFaultSweepEnv(fc, pt.th, p.seed())
		if err != nil {
			return pointOut{}, err
		}
		h, m := host.H, host.M
		churn, err := faultChurn(h, m, host.Col, rounds, threads, p.seed())
		if err != nil {
			return pointOut{}, fmt.Errorf("fault sweep: %s threshold %d: %w", fc.name, pt.th, err)
		}
		nvm, ok := m.Topology().Tier("nvm")
		if !ok {
			return pointOut{}, fmt.Errorf("fault sweep: no nvm tier")
		}
		o := pointOut{
			churn:    churn,
			fs:       nvm.FaultStats(),
			degraded: nvm.Degraded(),
			retired:  h.RetiredCount(),
		}
		// Media write amplification: 64 B line writes actually worn vs the
		// payload bytes the programs asked to write (sub-line stores wear a
		// whole line, so this is >= 1 on real media).
		st := nvm.Stats()
		o.writeAmp = ratio(float64(o.fs.LineWrites)*memsim.LineSize, float64(st.WriteBytes+st.NTBytes))
		// Projected lifetime: at the hottest line's observed wear rate, how
		// long until it reaches the mean threshold (virtual seconds).
		if o.fs.MaxLineWrites > 0 {
			o.lifetime = float64(pt.th) * seconds(churn.survival) / float64(o.fs.MaxLineWrites)
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}

	tbl := &metrics.Table{
		Title: fmt.Sprintf("Survival and self-healing cost by wear threshold (%d churn rounds max, %d GC threads)", rounds, threads),
		Columns: []string{"config", "wear threshold", "outcome", "gcs survived", "survival (ms)",
			"copy MB/s", "retired regions", "hard errors", "redirected copies", "tier fallbacks",
			"transient faults", "retries", "write amp", "max line wear", "projected lifetime (s)"},
	}
	var exhausted, degraded int
	for i, pt := range points {
		o := outs[i]
		outcome := "healthy"
		switch {
		case o.churn.exhausted:
			outcome = "exhausted"
			exhausted++
		case o.degraded:
			outcome = "degraded"
		}
		if o.degraded {
			degraded++
		}
		tput := ratio(float64(o.churn.copied)/1e6, seconds(o.churn.pause))
		tbl.AddRow(cfgs[pt.cfg].name, pt.th, outcome, o.churn.gcs, ms(o.churn.survival),
			tput, o.retired, o.fs.HardErrors, o.churn.faults.RedirectedCopies,
			o.churn.faults.TierFallbacks, o.churn.faults.TransientFaults,
			o.churn.faults.Retries, o.writeAmp, o.fs.MaxLineWrites, o.lifetime)
	}

	rep := &Report{
		ID:     "fault-sweep",
		Title:  "Faulty-NVM campaign: survival and self-healing vs wear rate",
		Tables: []*metrics.Table{tbl},
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"%d/%d points exhausted the tier before the churn budget; %d tripped degraded mode and fell back to DRAM placement",
		exhausted, len(points), degraded))
	var retries, transients int64
	for i := range points {
		retries += outs[i].churn.faults.Retries
		transients += outs[i].churn.faults.TransientFaults
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"every transient fault was retried exactly once in expectation: %d retries for %d faults", retries, transients))
	return rep, nil
}
