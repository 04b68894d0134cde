// Quickstart: build a simulated hybrid-memory machine, a region-based
// heap on NVM, allocate a small object graph, and run one young GC with
// the NVM-aware optimizations — then compare against the vanilla
// collector on the same graph.
package main

import (
	"fmt"
	"log"

	"nvmgc/internal/gc"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
	"nvmgc/internal/workload"
)

func main() {
	for _, opt := range []gc.Options{gc.Vanilla(), gc.Optimized()} {
		pause, copied := collectOnce(opt)
		fmt.Printf("%-12s pause %8.3f ms, copied %5.2f MiB\n",
			opt.Label(), float64(pause)/float64(memsim.Millisecond), float64(copied)/(1<<20))
	}
}

func collectOnce(opt gc.Options) (memsim.Time, int64) {
	// A host is a machine (DRAM + Optane-like NVM behind a shared LLC,
	// with a deterministic virtual clock), a heap split into G1-style
	// regions living on NVM, and the G1 collector managing it.
	spec := workload.PaperHost()
	spec.Opt = opt
	host, err := workload.NewHost(spec)
	if err != nil {
		log.Fatal(err)
	}
	m, h := host.M, host.H

	// Define an object class: 6 words, references at word offsets 2 and 3.
	node, err := h.Klasses.Define("node", 6, []int32{2, 3})
	if err != nil {
		log.Fatal(err)
	}

	// Allocate linked lists in eden; keep every other list alive via a
	// GC root.
	m.Run(1, func(w *memsim.Worker) {
		for i := 0; ; i++ {
			var prev heap.Address
			for j := 0; j < 8; j++ {
				obj, ok := h.AllocateEden(w, node, 6)
				if !ok {
					return // eden full: time to collect
				}
				if prev != 0 {
					h.SetRefInit(w, obj, 2, prev)
				}
				prev = obj
			}
			if i%2 == 0 {
				h.Roots.Add(w, prev)
			}
		}
	})

	// Run one stop-the-world young collection with 16 GC threads.
	stats, err := host.Col.Collect(16)
	if err != nil {
		log.Fatal(err)
	}

	// The heap can verify itself after the collection.
	if err := h.CheckInvariants(); err != nil {
		log.Fatalf("heap corrupt: %v", err)
	}
	return stats.Pause, stats.BytesCopied
}
