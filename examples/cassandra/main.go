// Cassandra: the paper's tail-latency experiment (Figure 8). A
// cassandra-stress style client drives a server JVM whose stop-the-world
// GC pauses stall request processing; the example prints p95/p99 latency
// versus offered throughput for the vanilla and the NVM-aware collector.
package main

import (
	"fmt"
	"log"

	"nvmgc/internal/cassandra"
	"nvmgc/internal/gc"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
	"nvmgc/internal/workload"
)

func main() {
	phase := cassandra.WritePhase()
	throughputs := []float64{10, 40, 70, 100, 130} // KQPS

	curves := map[string][]cassandra.StressResult{}
	for _, cfg := range []struct {
		label string
		opt   gc.Options
	}{
		{"vanilla", gc.Vanilla()},
		{"nvm-aware", gc.Optimized()},
	} {
		host, err := workload.NewHost(memsim.DefaultConfig(), heap.DefaultConfig(), false, cfg.opt)
		if err != nil {
			log.Fatal(err)
		}
		pauses, window, err := cassandra.RunPhase(host.Col, phase, workload.Config{GCThreads: 16, Scale: 0.5})
		if err != nil {
			log.Fatal(err)
		}
		curves[cfg.label] = cassandra.Stress(pauses, window, phase, throughputs, 1)
		fmt.Printf("%-10s %2d GC pauses over a %.0f ms window\n",
			cfg.label, len(pauses), float64(window)/float64(memsim.Millisecond))
	}

	fmt.Printf("\n%6s  %22s  %22s\n", "", "vanilla", "nvm-aware")
	fmt.Printf("%6s  %10s %10s  %10s %10s  %8s\n", "KQPS", "p95 (ms)", "p99 (ms)", "p95 (ms)", "p99 (ms)", "p99 gain")
	for i, kqps := range throughputs {
		v := curves["vanilla"][i]
		o := curves["nvm-aware"][i]
		gain := 0.0
		if o.P99ms > 0 {
			gain = v.P99ms / o.P99ms
		}
		fmt.Printf("%6.0f  %10.3f %10.3f  %10.3f %10.3f  %7.2fx\n",
			kqps, v.P95ms, v.P99ms, o.P95ms, o.P99ms, gain)
	}
}
