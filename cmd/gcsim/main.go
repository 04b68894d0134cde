// Command gcsim runs application profiles under one collector
// configuration and prints a GC log, per-collection statistics, and an
// optional bandwidth trace — the simulated analogue of running the
// modified JVM with -Xlog:gc plus Intel PCM.
//
// Usage:
//
//	gcsim -app page-rank -config all -threads 16
//	gcsim -app naive-bayes -collector ps -config vanilla -device dram
//	gcsim -app als -config writecache -trace
//	gcsim -app page-rank,als,movie-lens -parallel 3
//	gcsim -selfcheck -selfcheck-runs 50
package main

import (
	"bytes"
	"cmp"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"nvmgc/internal/check/oracle"
	"nvmgc/internal/gc"
	"nvmgc/internal/gclog"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
	"nvmgc/internal/par"
	"nvmgc/internal/workload"
)

type options struct {
	host       workload.HostSpec // built once from the host flags
	threads    int
	scale      float64
	seed       uint64
	trace      bool
	tiered     bool // an explicit -topology: report it and per-tier traffic
	jsonOut    string
	mixedEvery int
	fullEvery  int
}

// gcsim's run modes, as bits of a flag's flagModes entry.
const (
	appMode       = 1 << iota // one or more -app runs (the default)
	selfcheckMode             // -selfcheck
)

// flagModes names the run modes that read each flag. A flag absent here
// (-seed, -parallel, the -list-* flags) is read by every mode.
var flagModes = map[string]int{
	"app": appMode, "profile-file": appMode, "ycsb-records": appMode, "ycsb-ops": appMode,
	"ycsb-dist": appMode, "ycsb-theta": appMode, "collector": appMode, "device": appMode,
	"young-tier": appMode, "cache-tier": appMode, "meta-tier": appMode, "trace": appMode,
	"json": appMode, "mixed-every": appMode, "full-every": appMode, "config": appMode,
	"topology": appMode, "threads": appMode, "scale": appMode, "eager-yield": appMode,
	"cpuprofile": appMode, "memprofile": appMode,

	"selfcheck": selfcheckMode, "selfcheck-runs": selfcheckMode, "selfcheck-ops": selfcheckMode,
}

func main() {
	var (
		app         = flag.String("app", "page-rank", "workload scenario name — an application profile or a keyed scenario — or a comma-separated list (see -list-workloads)")
		listWk      = flag.Bool("list-workloads", false, "list registered workload scenarios and exit")
		ycsbRecords = flag.Int64("ycsb-records", 0, "override a keyed scenario's initial record count")
		ycsbOps     = flag.Int64("ycsb-ops", 0, "override a keyed scenario's operation budget (at -scale 1)")
		ycsbDist    = flag.String("ycsb-dist", "", "override a keyed scenario's request distribution: "+strings.Join(workload.RequestDists(), ", "))
		ycsbTheta   = flag.Float64("ycsb-theta", 0, "override a keyed scenario's zipfian skew, in (0, 1)")
		collector   = flag.String("collector", "g1", "collector: g1 or ps")
		config      = flag.String("config", "vanilla", "options: vanilla, writecache, all, async")
		device      = flag.String("device", "nvm", "heap device: nvm or dram")
		topology    = flag.String("topology", "", "comma-separated memory-tier list replacing the default dram+nvm pair; each entry is a built-in tier name or alias=builtin (see -list-devices), e.g. 'local-dram,remote-dram,nvm=optane'")
		listDevices = flag.Bool("list-devices", false, "list the built-in memory-tier profiles and exit")
		youngTier   = flag.String("young-tier", "", "tier name for eden+survivor regions (default: placement policy)")
		cacheTier   = flag.String("cache-tier", "", "tier name for write-cache regions (default: placement policy)")
		metaTier    = flag.String("meta-tier", "", "tier name for the metadata/journal area (default: placement policy)")
		threads     = flag.Int("threads", 16, "GC threads")
		scale       = flag.Float64("scale", 0.5, "workload scale")
		seed        = flag.Uint64("seed", 1, "workload RNG seed")
		trace       = flag.Bool("trace", false, "print the NVM bandwidth trace and LLC statistics")
		jsonOut     = flag.String("json", "", "write the GC log as JSON lines to this file ('-' for stdout)")
		mixedEvery  = flag.Int("mixed-every", 0, "run a mixed GC after every N young GCs")
		fullEvery   = flag.Int("full-every", 0, "run a full GC after every N young GCs")
		profileFile = flag.String("profile-file", "", "load a custom workload profile from a JSON file (overrides -app)")

		selfcheck     = flag.Bool("selfcheck", false, "run the differential selfcheck campaign (seeded random workloads through the reference collector vs every real configuration) and exit non-zero on divergence")
		selfcheckRuns = flag.Int("selfcheck-runs", 50, "with -selfcheck: number of seeded workload traces")
		selfcheckOps  = flag.Int("selfcheck-ops", 400, "with -selfcheck: operations per workload trace")

		parallel = flag.Int("parallel", 0, "host workers for a comma-separated -app list (0 = NumCPU, 1 = serial); per-app output is identical at any setting")
		eager    = flag.Bool("eager-yield", false, "use the reference scheduler (yield before every device op); identical results, slower")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *parallel < 0 {
		fatal(fmt.Errorf("-parallel %d: negative worker count (0 means all cores, 1 serial)", *parallel))
	}
	mode := appMode
	if *selfcheck {
		mode = selfcheckMode
	}
	for _, err := range []error{checkModeFlags(mode, flag.CommandLine), checkThreads(*threads), checkScale(*scale),
		checkEvery("-mixed-every", *mixedEvery), checkEvery("-full-every", *fullEvery)} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "gcsim:", err)
			os.Exit(2)
		}
	}

	if *listWk {
		for _, s := range workload.Scenarios() {
			fmt.Printf("%-18s %-10s %s\n", s.Name, s.Family, s.Desc)
		}
		return
	}

	if *listDevices {
		for _, s := range memsim.BuiltinTiers() {
			attr := "volatile"
			if s.Persistent {
				attr = "persistent"
				if s.EADR {
					attr = "persistent+eadr"
				}
			}
			fmt.Printf("%-12s %-15s read %3dns/%2.0fGB/s  write %3dns/%2.0fGB/s (nt %2.0f)  gran %3dB\n",
				s.Name, attr, s.Profile.ReadLatency, s.Profile.PeakReadBW,
				s.Profile.WriteLatency, s.Profile.PeakWriteBW, s.Profile.NTWriteBW,
				s.Profile.Granularity)
		}
		return
	}

	if *selfcheck {
		rep, err := oracle.Campaign(*selfcheckRuns, *selfcheckOps, *seed, *parallel)
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep.String())
		if !rep.Passed() {
			os.Exit(1)
		}
		return
	}

	// The one host every run of this invocation gets: PaperHost with the host
	// flags applied.
	opt, err := parseConfig(*config)
	if err != nil {
		fatal(err)
	}
	if *collector != "g1" && *collector != "ps" {
		fatal(fmt.Errorf("unknown -collector %q (want g1 or ps)", *collector))
	}
	tiers, err := parseTopology(*topology)
	if err != nil {
		fatal(err)
	}
	host := workload.PaperHost()
	host.Opt, host.PS = opt, *collector == "ps"
	host.Machine.EagerYield = *eager
	if !*trace {
		host.Machine.TraceBucket = 0
	}
	if tiers != nil {
		host.Machine.Tiers = tiers
	}
	flagPlace := heap.PlacementPolicy{Eden: *youngTier, Survivor: *youngTier, Cache: *cacheTier, Meta: *metaTier}
	if err := validatePlacement(flagPlace, host.Machine); err != nil {
		fatal(err)
	}
	place, err := parseDevice(*device)
	if err != nil {
		fatal(err)
	}
	place.Eden = cmp.Or(*youngTier, place.Eden)
	place.Survivor = cmp.Or(*youngTier, place.Survivor)
	place.Cache = cmp.Or(*cacheTier, place.Cache)
	place.Meta = cmp.Or(*metaTier, place.Meta)
	host.Heap.Placement = place
	o := options{
		host: host, threads: *threads, scale: *scale, seed: *seed, trace: *trace,
		tiered:  tiers != nil,
		jsonOut: *jsonOut, mixedEvery: *mixedEvery, fullEvery: *fullEvery,
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

	var specs []workload.Spec
	if *profileFile != "" {
		prof, err := workload.LoadProfileFile(*profileFile)
		if err != nil {
			fatal(err)
		}
		specs = append(specs, workload.Spec{Name: prof.Name, Family: "custom", Profile: &prof})
	} else {
		for _, name := range strings.Split(*app, ",") {
			spec, err := workload.ScenarioByName(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			specs = append(specs, spec)
		}
	}
	if *ycsbRecords != 0 || *ycsbOps != 0 || *ycsbDist != "" || *ycsbTheta != 0 {
		// Validate the overrides up-front, against every selected scenario,
		// before any simulation starts.
		for i := range specs {
			if specs[i].Core == nil {
				fatal(fmt.Errorf("-ycsb-* flags need a keyed scenario; %q is profile-backed (see -list-workloads)", specs[i].Name))
			}
			core := *specs[i].Core
			if *ycsbRecords != 0 {
				core.Records = *ycsbRecords
			}
			if *ycsbOps != 0 {
				core.Ops = *ycsbOps
			}
			if *ycsbDist != "" {
				core.Request = *ycsbDist
			}
			if *ycsbTheta != 0 {
				core.Theta = *ycsbTheta
			}
			if err := core.Validate(); err != nil {
				fatal(err)
			}
			if *ycsbTheta != 0 && core.Request != workload.DistZipfian {
				fatal(fmt.Errorf("-ycsb-theta: %s runs the %s request distribution, which has no skew to set (only %s does)",
					specs[i].Name, core.Request, workload.DistZipfian))
			}
			specs[i].Core = &core
		}
	}
	if len(specs) > 1 && *jsonOut != "" && *jsonOut != "-" {
		fatal(fmt.Errorf("-json to a file needs a single -app"))
	}

	// Each app gets its own Machine and is deterministic given the seed,
	// so the runs fan out over the host pool and print in list order.
	outs, err := par.Map(len(specs), *parallel, func(i int) (*bytes.Buffer, error) {
		var b bytes.Buffer
		err := runApp(&b, specs[i], o)
		return &b, err
	})
	if err != nil {
		fatal(err)
	}
	for i, b := range outs {
		if i > 0 {
			fmt.Println()
		}
		io.Copy(os.Stdout, b)
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

// parseConfig maps the -config flag to collector options.
func parseConfig(name string) (gc.Options, error) {
	switch name {
	case "vanilla":
		return gc.Vanilla(), nil
	case "writecache":
		return gc.WithWriteCache(), nil
	case "all":
		return gc.Optimized(), nil
	case "async":
		opt := gc.Optimized()
		opt.AsyncFlush = true
		return opt, nil
	default:
		return gc.Options{}, fmt.Errorf("unknown config %q (want vanilla, writecache, all, or async)", name)
	}
}

// parseDevice maps the -device flag to a heap placement: the paper's NVM
// heap (the default policy) or the all-DRAM reference heap. The *-tier
// flags then move single areas.
func parseDevice(name string) (heap.PlacementPolicy, error) {
	switch name {
	case "nvm":
		return heap.PlacementPolicy{}, nil
	case "dram":
		return heap.AllOn("dram"), nil
	default:
		return heap.PlacementPolicy{}, fmt.Errorf("unknown -device %q (want nvm or dram; richer hosts use -topology, see -list-devices)", name)
	}
}

// checkModeFlags rejects every flag set on fs that the run mode does not
// read, naming each one, so no run silently ignores a flag.
func checkModeFlags(mode int, fs *flag.FlagSet) error {
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if m, ok := flagModes[f.Name]; ok && m&mode == 0 {
			set = append(set, "-"+f.Name)
		}
	})
	if len(set) == 0 {
		return nil
	}
	name := map[int]string{appMode: "an -app run", selfcheckMode: "-selfcheck"}[mode]
	return fmt.Errorf("%s does not read %s (flags of another run mode)", name, strings.Join(set, ", "))
}

// parseTopology turns the -topology flag into tier specs: a comma-separated
// list of built-in tier names, each optionally renamed via alias=builtin.
// Unknown names are an error, never a silent fallback, and so are the two
// lists NewMachine would panic on: an empty tier name and a repeated one.
func parseTopology(s string) ([]memsim.TierSpec, error) {
	if s == "" {
		return nil, nil
	}
	var specs []memsim.TierSpec
	seen := make(map[string]bool)
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		name, src := item, item
		if eq := strings.IndexByte(item, '='); eq >= 0 {
			name, src = strings.TrimSpace(item[:eq]), strings.TrimSpace(item[eq+1:])
		}
		spec, ok := memsim.BuiltinTier(src)
		if !ok {
			return nil, fmt.Errorf("-topology: unknown tier %q (built-ins: %s)",
				src, strings.Join(memsim.BuiltinTierNames(), ", "))
		}
		if name == "" {
			return nil, fmt.Errorf("-topology: empty tier name in %q", item)
		}
		if seen[name] {
			return nil, fmt.Errorf("-topology: duplicate tier name %q", name)
		}
		seen[name] = true
		spec.Name = name
		specs = append(specs, spec)
	}
	return specs, nil
}

// validatePlacement rejects *-tier flags naming tiers absent from the
// machine mc builds.
func validatePlacement(place heap.PlacementPolicy, mc memsim.Config) error {
	tiers := mc.Tiers
	names := make([]string, len(tiers))
	known := make(map[string]bool, len(tiers))
	for i, ts := range tiers {
		names[i] = ts.Name
		known[ts.Name] = true
	}
	for _, want := range []struct{ flag, tier string }{
		{"-young-tier", place.Eden},
		{"-cache-tier", place.Cache},
		{"-meta-tier", place.Meta},
	} {
		if want.tier != "" && !known[want.tier] {
			return fmt.Errorf("%s: unknown tier %q (topology has: %s)",
				want.flag, want.tier, strings.Join(names, ", "))
		}
	}
	return nil
}

// runApp executes one workload scenario and writes its whole report to w.
func runApp(w io.Writer, spec workload.Spec, o options) error {
	host, err := workload.NewHost(o.host)
	if err != nil {
		return err
	}
	m, h, col := host.M, host.H, host.Col

	r, err := spec.NewRunner(col, workload.Config{
		GCThreads: o.threads, Scale: o.scale, Seed: o.seed,
		MixedGCEvery: o.mixedEvery, FullGCEvery: o.fullEvery,
	})
	if err != nil {
		return err
	}
	res, err := r.Run()
	if err != nil {
		return err
	}

	heapOn := "DRAM" // named by whether the old space persists
	if m.TierOf(h.OldDevice()).Persistent() {
		heapOn = "NVM"
	}
	fmt.Fprintf(w, "%s on %s, %s %s, %d GC threads (virtual time)\n",
		spec.Name, heapOn, col.Name(), o.host.Opt.Label(), o.threads)
	if o.tiered {
		fmt.Fprintf(w, "topology: %s\n", m.Topology())
	}
	fmt.Fprintf(w, "heap %d MiB, region %d KiB, eden %d regions\n\n",
		h.HeapBytes()>>20, h.RegionBytes()>>10, h.Config().EdenRegions)

	for i, c := range res.Collections {
		fmt.Fprintf(w, "[gc %2d] pause %8.3fms  copied %6.2f MiB (%d objs, %d promoted)  read-mostly %7.3fms  write-only %7.3fms\n",
			i, ms(c.Pause), float64(c.BytesCopied)/(1<<20), c.ObjectsCopied, c.ObjectsPromoted,
			ms(c.ReadMostly), ms(c.WriteOnly))
		if c.HeaderMapInstalls > 0 || c.HeaderMapFallbacks > 0 {
			fmt.Fprintf(w, "        header map: %d hits, %d installs, %d fallbacks\n",
				c.HeaderMapHits, c.HeaderMapInstalls, c.HeaderMapFallbacks)
		}
		if c.CacheRegionsUsed > 0 {
			fmt.Fprintf(w, "        write cache: %d regions, %d sync + %d async flushes, %d fallback bytes\n",
				c.CacheRegionsUsed, c.RegionsFlushedSync, c.RegionsFlushedAsync, c.CacheFallbackBytes)
		}
	}

	if o.jsonOut != "" {
		l := gclog.FromCollections(col.Name(), o.host.Opt, o.threads, res.Collections)
		if o.jsonOut == "-" {
			if err := l.WriteJSON(w); err != nil {
				return err
			}
		} else {
			f, err := os.Create(o.jsonOut)
			if err != nil {
				return err
			}
			if err := l.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		sum := l.Summarize()
		fmt.Fprintf(w, "\ngc log summary: %d collections (%d full), total pause %.3f ms, p95 %.3f ms, NT write share %.0f%%\n",
			sum.Collections, sum.FullGCs, sum.TotalPauseMs, sum.P95PauseMs, 100*sum.WriteSeparation)
	}

	tot := res.GCTotals()
	fmt.Fprintf(w, "\ntotal:   %10.3f ms\napp:     %10.3f ms\ngc:      %10.3f ms (%d collections, max pause %.3f ms)\n",
		ms(res.Total), ms(res.App), ms(res.GC), tot.Collections, ms(tot.MaxPause))
	fmt.Fprintf(w, "gc NVM traffic: %.1f MiB read, %.1f MiB written (%.1f writeback + %.1f non-temporal)\n",
		float64(tot.NVM.ReadBytes)/(1<<20), float64(tot.NVM.WriteBytes)/(1<<20),
		float64(tot.NVM.WritebackBytes)/(1<<20), float64(tot.NVM.NTBytes)/(1<<20))
	if o.tiered {
		for _, tt := range tot.Tiers {
			fmt.Fprintf(w, "gc tier %-12s %.1f MiB read, %.1f MiB written (%.1f writeback + %.1f non-temporal)\n",
				tt.Name+":", float64(tt.Stats.ReadBytes)/(1<<20), float64(tt.Stats.WriteBytes)/(1<<20),
				float64(tt.Stats.WritebackBytes)/(1<<20), float64(tt.Stats.NTBytes)/(1<<20))
		}
	}
	fmt.Fprintf(w, "allocated: %.1f MiB\n", float64(res.Allocated)/(1<<20))
	if res.Ops > 0 {
		fmt.Fprintf(w, "ops: %d\n", res.Ops)
	}

	if o.trace {
		cs := m.LLC.Stats()
		fmt.Fprintf(w, "llc: %d hits, %d misses, %d writebacks; prefetch: %d promoted, %d overwritten in-flight\n",
			cs.Hits, cs.Misses, cs.Writebacks, cs.PrefetchPromotions, cs.PrefetchOverwrites)
		fmt.Fprintln(w, "\nNVM bandwidth trace (MB/s):")
		for _, pt := range m.NVM.Trace().Series(0) {
			if pt.Total == 0 {
				continue
			}
			fmt.Fprintf(w, "%10.2fms  read %8.0f  write %8.0f  total %8.0f\n",
				ms(pt.T), pt.Read, pt.Write, pt.Total)
		}
	}
	return nil
}

func ms(t memsim.Time) float64 { return float64(t) / float64(memsim.Millisecond) }

// checkThreads rejects a -threads value no collection can run with, in
// every mode, before any machine is built.
func checkThreads(n int) error {
	if n < 1 || n > memsim.MaxWorkers {
		return fmt.Errorf("-threads %d: a collection runs 1 to %d GC threads", n, memsim.MaxWorkers)
	}
	return nil
}

// checkScale rejects a -scale the run would otherwise rewrite: a negative
// value runs at the default, and NaN collapses the workload's budget.
func checkScale(s float64) error {
	if !(s >= 0) || math.IsInf(s, 1) {
		return fmt.Errorf("-scale %g: want a finite value >= 0 (0 = the workload default)", s)
	}
	return nil
}

// checkEvery rejects a negative collection cadence, which the runner
// would otherwise treat as 0 (off).
func checkEvery(name string, n int) error {
	if n < 0 {
		return fmt.Errorf("%s %d: want a count of young GCs >= 0 (0 = off)", name, n)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gcsim:", err)
	os.Exit(1)
}
