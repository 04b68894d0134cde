// Scalability: the paper's Figure 13 in miniature. Sweeps the GC thread
// count for one application and shows why the vanilla collector stops
// scaling on NVM (bandwidth saturation) while the write cache and header
// map restore scalability.
package main

import (
	"flag"
	"fmt"
	"log"

	"nvmgc/internal/gc"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
	"nvmgc/internal/workload"
)

func main() {
	app := flag.String("app", "page-rank", "workload scenario (gcsim -list-workloads)")
	scale := flag.Float64("scale", 0.4, "workload scale")
	flag.Parse()
	spec, err := workload.ScenarioByName(*app)
	if err != nil {
		log.Fatal(err)
	}

	threads := []int{1, 2, 4, 8, 20, 28, 56}
	configs := []struct {
		label string
		opt   gc.Options
	}{
		{"vanilla", gc.Vanilla()},
		{"+writecache", gc.WithWriteCache()},
		{"+all", gc.Optimized()},
	}

	fmt.Printf("%s on NVM: accumulated GC time (ms) vs GC threads\n\n", *app)
	fmt.Printf("%8s", "threads")
	for _, c := range configs {
		fmt.Printf("  %12s", c.label)
	}
	fmt.Println()

	for _, th := range threads {
		fmt.Printf("%8d", th)
		for _, c := range configs {
			host, err := workload.NewHost(memsim.DefaultConfig(), heap.DefaultConfig(), false, c.opt)
			if err != nil {
				log.Fatal(err)
			}
			r, err := spec.NewRunner(host.Col, workload.Config{GCThreads: th, Scale: *scale})
			if err != nil {
				log.Fatal(err)
			}
			res, err := r.Run()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %12.1f", float64(res.GC)/float64(memsim.Millisecond))
		}
		fmt.Println()
	}
	fmt.Println("\nexpected shape: vanilla plateaus near 8 threads; +writecache near 20; +all keeps improving")
}
