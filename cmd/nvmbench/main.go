// Command nvmbench regenerates the paper's tables and figures from the
// simulated stack.
//
// Usage:
//
//	nvmbench -list
//	nvmbench -run fig5 -scale 0.5 -threads 16
//	nvmbench -run all -quick -format csv -o results.csv
//	nvmbench -run fleet -quick -format json -o results/BENCH_fleet.json
//	nvmbench -run fig5 -parallel 1 -eager-yield   # reference schedule, serial
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"nvmgc/internal/bench"
	"nvmgc/internal/memsim"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiments and exit")
		run     = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		scale   = flag.Float64("scale", 0.5, "workload scale (fraction of full eden fills)")
		threads = flag.Int("threads", 0, "override GC thread count (0 = per-experiment default)")
		seed    = flag.Uint64("seed", 1, "workload RNG seed")
		quick   = flag.Bool("quick", false, "reduced app sets and sweeps")
		format  = flag.String("format", "table", "output format: table, csv or json (one document per experiment; the results/BENCH_*.json archives)")
		out     = flag.String("o", "", "write output to file instead of stdout")

		nvmTier  = flag.String("nvm-tier", "", "substitute a built-in tier profile for the persistent tier of every experiment machine (e.g. eadr-nvm; see gcsim -list-devices)")
		parallel = flag.Int("parallel", 0, "host workers for fanning out experiment points (0 = NumCPU, 1 = serial); results are identical at any setting")
		eager    = flag.Bool("eager-yield", false, "use the reference scheduler (yield before every device op); identical results, slower")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	params := bench.Params{
		Scale: *scale, Threads: *threads, Seed: *seed, Quick: *quick,
		Parallel: *parallel, EagerYield: *eager, NVMTier: *nvmTier,
	}
	if err := checkFlags(params, *format); err != nil {
		fmt.Fprintln(os.Stderr, "nvmbench:", err)
		os.Exit(2)
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	ids, err := resolveRunIDs(*run)
	if err != nil {
		fatal(err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	for _, id := range ids {
		e, _ := bench.ByID(id)
		start := time.Now()
		fmt.Fprintf(os.Stderr, "running %s...\n", id)
		rep, err := e.Run(params)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		fmt.Fprintf(os.Stderr, "%s done in %v\n", id, time.Since(start).Round(time.Millisecond))
		switch *format {
		case "csv":
			fmt.Fprint(w, rep.CSV())
		case "json":
			fmt.Fprint(w, rep.JSON("nvmbench "+strings.Join(os.Args[1:], " ")))
		case "table":
			fmt.Fprintln(w, rep.Render())
		}
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

// checkFlags rejects flag values a run would otherwise rewrite or trip
// over deep inside an experiment, before any output file is created.
func checkFlags(p bench.Params, format string) error {
	if p.Threads < 0 || p.Threads > memsim.MaxWorkers {
		return fmt.Errorf("-threads %d: a collection runs 1 to %d GC threads (0 = per-experiment default)", p.Threads, memsim.MaxWorkers)
	}
	if format != "table" && format != "csv" && format != "json" {
		return fmt.Errorf("-format %q: want table, csv or json", format)
	}
	return p.Validate()
}

// resolveRunIDs expands the -run flag into a validated experiment id
// list: "all" means every registered experiment, anything else is a
// comma-separated list where every id must exist.
func resolveRunIDs(run string) ([]string, error) {
	if run == "all" {
		var ids []string
		for _, e := range bench.All() {
			ids = append(ids, e.ID)
		}
		return ids, nil
	}
	var ids []string
	for _, id := range strings.Split(run, ",") {
		id = strings.TrimSpace(id)
		if _, ok := bench.ByID(id); !ok {
			return nil, fmt.Errorf("unknown experiment %q (try -list)", id)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nvmbench:", err)
	os.Exit(1)
}
