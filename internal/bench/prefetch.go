package bench

import (
	"fmt"
	"math/rand/v2"

	"nvmgc/internal/memsim"
	"nvmgc/internal/metrics"
	"nvmgc/internal/par"
)

// PrefetchTable reproduces the Section 4.3 micro-benchmark table: a large
// array is accessed at pre-generated random indices (read-modify-write),
// with and without software prefetching, on DRAM and on NVM. The paper
// measures 1.513s -> 0.958s on DRAM (1.58x) and 4.171s -> 1.369s on NVM
// (3.05x): both devices benefit, NVM far more, because the hidden miss
// latency is much larger.
func PrefetchTable(p Params) (*Report, error) {
	accesses := 400_000
	if p.Quick {
		accesses = 40_000
	}
	const (
		arrayBytes   = 48 << 20 // larger than the LLC
		prefetchDist = 12
		computeNs    = 40 // per-iteration work that can hide latency
	)

	run := func(tier string, prefetch bool) float64 {
		m := memsim.NewMachine(p.machineConfig(false))
		dev := tierDevice(m, tier)
		rng := rand.New(rand.NewPCG(p.seed(), 0xF00D))
		idx := make([]uint64, accesses)
		base := uint64(1) << 33
		for i := range idx {
			idx[i] = base + uint64(rng.Int64N(arrayBytes/64))*64
		}
		m.Run(1, func(w *memsim.Worker) {
			for i := 0; i < accesses; i++ {
				if prefetch && i+prefetchDist < accesses {
					w.Prefetch(dev, idx[i+prefetchDist], 8, false)
				}
				w.Read(dev, idx[i], 8, false)
				w.Write(dev, idx[i], 8, false) // update in place
				w.Advance(computeNs)
			}
		})
		return seconds(m.Now())
	}

	t := &metrics.Table{
		Title:   "Random-access micro-benchmark (read+update), with/without prefetch",
		Columns: []string{"configuration", "result (s)"},
	}
	cfgs := []struct {
		tier     string
		prefetch bool
	}{
		{"dram", false}, {"dram", true},
		{"nvm", false}, {"nvm", true},
	}
	times, err := par.Map(len(cfgs), p.Parallel, func(i int) (float64, error) {
		return run(cfgs[i].tier, cfgs[i].prefetch), nil
	})
	if err != nil {
		return nil, err
	}
	dn, dp, nn, np := times[0], times[1], times[2], times[3]
	t.AddRow("DRAM-noprefetch", dn)
	t.AddRow("DRAM-prefetch", dp)
	t.AddRow("NVM-noprefetch", nn)
	t.AddRow("NVM-prefetch", np)

	rep := &Report{ID: "tab-prefetch", Title: "Software-prefetch micro-benchmark", Tables: []*metrics.Table{t}}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("prefetch improvement: DRAM %.2fx, NVM %.2fx (paper: 1.58x and 3.05x)", dn/dp, nn/np))
	return rep, nil
}
