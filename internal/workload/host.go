package workload

import (
	"fmt"

	"nvmgc/internal/gc"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

// HostSpec is the one description of the host a run gets: the machine,
// the heap on it (its geometry, and in Heap.Placement where each area
// lives), and the collector. PaperHost and KeyedHost are its two
// geometries; callers differ only in the fields they override.
type HostSpec struct {
	Machine memsim.Config
	Heap    heap.Config
	PS      bool // Parallel Scavenge instead of G1
	Opt     gc.Options
}

// PaperHost is the paper-scaled host: the calibrated default machine and
// the 64 MiB heap on NVM (memsim.DefaultConfig, heap.DefaultConfig),
// under vanilla G1.
func PaperHost() HostSpec {
	return HostSpec{Machine: memsim.DefaultConfig(), Heap: heap.DefaultConfig()}
}

// KeyedHost is the keyed-population host: PaperHost with a 16 MiB heap in
// 32 KiB regions and a 3 MiB eden, small enough that update-heavy mixes
// and server phases cycle eden several times per run while a whole grid
// of them stays smoke-test fast.
func KeyedHost() HostSpec {
	h := PaperHost()
	h.Heap.RegionBytes = 32 << 10
	h.Heap.HeapRegions = 512
	h.Heap.CacheRegions = 64
	h.Heap.EdenRegions = 96
	h.Heap.SurvivorRegions = 48
	return h
}

// Host is one assembled simulated JVM host: a machine, the heap on it,
// and the collector managing that heap.
type Host struct {
	M   *memsim.Machine
	H   *heap.Heap
	Col gc.Collector
}

// NewHost assembles machine → heap → collector, the one sequence every
// figure, CLI, fleet instance, the fault sweep and the selfcheck run on. A
// crash-consistent collector (Opt.Persist set) gets what it needs on the
// way: a persistence domain tracking the machine's persistent tier,
// attached before the heap exists so the heap registers its backing
// store with it, and a journal area in the heap's metadata space. The
// tier, not the collector, says whether the CPU caches are inside that
// domain: an ADR collector on an eADR tier gets an eADR domain, and a
// PersistEADR collector on an ADR tier is an error.
func NewHost(s HostSpec) (Host, error) {
	m := memsim.NewMachine(s.Machine)
	if s.Opt.Persist != gc.PersistNone {
		tier := m.TierOf(m.NVM)
		if s.Opt.Persist == gc.PersistEADR && !tier.EADR() {
			return Host{}, fmt.Errorf("workload: Persist %v needs an eADR platform; tier %q is not one", s.Opt.Persist, tier.Spec().Name)
		}
		m.EnablePersist(m.NVM, tier.EADR())
		if s.Heap.MetaBytes == 0 {
			s.Heap.MetaBytes = 1 << 20
		}
	}
	h, err := heap.New(m, s.Heap)
	if err != nil {
		return Host{}, err
	}
	var col gc.Collector
	if s.PS {
		col, err = gc.NewPS(h, s.Opt)
	} else {
		col, err = gc.NewG1(h, s.Opt)
	}
	if err != nil {
		return Host{}, err
	}
	return Host{M: m, H: h, Col: col}, nil
}
