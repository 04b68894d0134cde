// Pagerank: the paper's headline workload. Runs the Spark-style
// page-rank profile on DRAM and on NVM with the vanilla G1, then on NVM
// with the paper's optimizations (+writecache, +all), and prints the
// application/GC time split for each — Figure 1 and Figure 5 in miniature.
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
	type cfg struct {
		label string
		kind  memsim.Kind
		opt   gc.Options
	}
	configs := []cfg{
		{"dram/vanilla", memsim.DRAM, gc.Vanilla()},
		{"nvm/vanilla", memsim.NVM, gc.Vanilla()},
		{"nvm/+writecache", memsim.NVM, gc.WithWriteCache()},
		{"nvm/+all", memsim.NVM, gc.Optimized()},
	}

	spec, err := workload.ScenarioByName("page-rank")
	if err != nil {
		log.Fatal(err)
	}
	var vanillaGC, vanillaTotal float64
	for _, c := range configs {
		hc := heap.DefaultConfig()
		hc.HeapKind = c.kind
		host, err := workload.NewHost(memsim.DefaultConfig(), hc, false, c.opt)
		if err != nil {
			log.Fatal(err)
		}
		r, err := spec.NewRunner(host.Col, workload.Config{GCThreads: 16, Scale: 0.5})
		if err != nil {
			log.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			log.Fatal(err)
		}

		gcMs := float64(res.GC) / float64(memsim.Millisecond)
		totalMs := float64(res.Total) / float64(memsim.Millisecond)
		line := fmt.Sprintf("%-16s total %9.1f ms  app %9.1f ms  gc %8.1f ms (%d pauses)",
			c.label, totalMs, float64(res.App)/float64(memsim.Millisecond), gcMs, len(res.Collections))
		if c.label == "nvm/vanilla" {
			vanillaGC, vanillaTotal = gcMs, totalMs
		} else if vanillaGC > 0 && c.kind == memsim.NVM {
			line += fmt.Sprintf("  -> GC %0.2fx faster, app time %+0.1f%%",
				vanillaGC/gcMs, 100*(totalMs-vanillaTotal)/vanillaTotal)
		}
		fmt.Println(line)
	}
}
