package workload

import (
	"nvmgc/internal/gc"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

// Host is one assembled simulated JVM host: a machine, the heap on it,
// and the collector managing that heap.
type Host struct {
	M   *memsim.Machine
	H   *heap.Heap
	Col gc.Collector
}

// NewHost assembles machine → heap → collector, the one sequence every
// figure, CLI, fleet instance and example runs a scenario on. A
// crash-consistent collector (opt.Persist set) gets what it needs on the
// way: a persistence domain tracking the machine's persistent tier,
// attached before the heap exists so the heap registers its backing
// store with it, and a journal area in the heap's metadata space. ps
// selects the Parallel Scavenge collector over G1.
func NewHost(mc memsim.Config, hc heap.Config, ps bool, opt gc.Options) (Host, error) {
	m := memsim.NewMachine(mc)
	if opt.Persist != gc.PersistNone {
		m.EnablePersist(m.NVM, opt.Persist == gc.PersistEADR)
		if hc.MetaBytes == 0 {
			hc.MetaBytes = 1 << 20
		}
	}
	h, err := heap.New(m, hc)
	if err != nil {
		return Host{}, err
	}
	var col gc.Collector
	if ps {
		col, err = gc.NewPS(h, opt)
	} else {
		col, err = gc.NewG1(h, opt)
	}
	if err != nil {
		return Host{}, err
	}
	return Host{M: m, H: h, Col: col}, nil
}

// KeyedHeapConfig is the keyed-population heap geometry: a 16 MiB NVM
// heap in 32 KiB regions with a 3 MiB eden, small enough that
// update-heavy mixes and server phases cycle eden several times per run
// while a whole grid of them stays smoke-test fast.
func KeyedHeapConfig() heap.Config {
	hc := heap.DefaultConfig()
	hc.RegionBytes = 32 << 10
	hc.HeapRegions = 512
	hc.CacheRegions = 64
	hc.EdenRegions = 96
	hc.SurvivorRegions = 48
	hc.HeapKind = memsim.NVM
	return hc
}
