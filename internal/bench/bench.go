// Package bench regenerates every table and figure of the paper's
// evaluation (Section 2 and Section 5) from the simulated stack. Each
// experiment prints the same rows/series the paper reports, scaled to the
// laptop-sized heap; EXPERIMENTS.md records the paper-vs-measured
// comparison.
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"nvmgc/internal/gc"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
	"nvmgc/internal/metrics"
	"nvmgc/internal/par"
	"nvmgc/internal/workload"
)

// Params tunes an experiment run.
type Params struct {
	// Scale multiplies each profile's run length (eden fills). 0 -> 0.5;
	// negative, NaN and infinite values are invalid.
	Scale float64
	// Threads overrides the per-experiment default GC thread count.
	Threads int
	// Seed for workload RNGs. 0 -> 1.
	Seed uint64
	// Quick restricts app sets and sweeps for fast smoke runs.
	Quick bool
	// Parallel bounds the host worker pool that fans out independent
	// experiment data points (each one builds its own Machine and is
	// deterministic given its seed, so results are identical at any
	// setting). 0 -> runtime.NumCPU(), 1 -> serial.
	Parallel int
	// EagerYield runs every Machine on the reference schedule (nothing
	// done on a parked worker's behalf; memsim.Config.EagerYield).
	// Results are identical; this exists to demonstrate that.
	EagerYield bool
	// NVMTier, when set, substitutes the named built-in tier profile
	// (memsim.BuiltinTier) for the persistent tier of every experiment
	// machine that does not already declare its own topology — e.g.
	// "eadr-nvm" re-runs the whole suite on an eADR platform. Empty keeps
	// the calibrated Optane default.
	NVMTier string
}

// Validate rejects parameter values that would otherwise surface deep in
// an experiment (front ends call it right after flag parsing).
func (p Params) Validate() error {
	if p.Parallel < 0 {
		return fmt.Errorf("bench: negative parallel %d (0 means all cores, 1 serial)", p.Parallel)
	}
	if !(p.Scale >= 0) || math.IsInf(p.Scale, 1) {
		return fmt.Errorf("bench: scale %g, want a finite value >= 0 (0 means the default 0.5)", p.Scale)
	}
	if p.NVMTier != "" {
		if _, ok := memsim.BuiltinTier(p.NVMTier); !ok {
			return fmt.Errorf("bench: unknown NVM tier %q (built-ins: %s)",
				p.NVMTier, strings.Join(memsim.BuiltinTierNames(), ", "))
		}
	}
	return nil
}

func (p Params) scale() float64 {
	if p.Scale <= 0 {
		return 0.5
	}
	return p.Scale
}

func (p Params) seed() uint64 {
	if p.Seed == 0 {
		return 1
	}
	return p.Seed
}

func (p Params) threads(def int) int {
	if p.Threads > 0 {
		return p.Threads
	}
	return def
}

// Report is an experiment's output: one or more tables plus free-form
// notes (averages, headline ratios).
type Report struct {
	ID     string
	Title  string
	Tables []*metrics.Table
	Notes  []string
}

// Render returns the report as plain text.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV returns all tables in CSV form.
func (r *Report) CSV() string {
	var b strings.Builder
	for _, t := range r.Tables {
		fmt.Fprintf(&b, "# %s\n", t.Title)
		b.WriteString(t.CSV())
	}
	return b.String()
}

// JSON returns the rows of all tables as one JSON document — the format of
// the results/BENCH_*.json archives. Each row is an object keyed by its
// table's column names; a cell that is a JSON number literal stays bare,
// every other cell is a string. command records how the report was made.
func (r *Report) JSON(command string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "{\n  \"generated_by\": \"nvmbench -format json\",\n  \"command\": %s,\n  \"rows\": [", jsonString(command))
	sep := "\n"
	for _, t := range r.Tables {
		for _, row := range t.Rows {
			b.WriteString(sep + "    {")
			sep = ",\n"
			for i, cell := range row[:min(len(row), len(t.Columns))] {
				if i > 0 {
					b.WriteString(", ")
				}
				// Bare only if a number (ParseFloat) spelled JSON's way (not "+5", ".5", "Inf").
				if _, err := strconv.ParseFloat(cell, 64); err != nil || !json.Valid([]byte(cell)) {
					cell = jsonString(cell)
				}
				b.WriteString(jsonString(t.Columns[i]) + ": " + cell)
			}
			b.WriteByte('}')
		}
	}
	b.WriteString("\n  ]\n}\n")
	return b.String()
}

func jsonString(s string) string {
	q, _ := json.Marshal(s) // a string always marshals
	return string(q)
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(Params) (*Report, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "Application and GC time when replacing DRAM with NVM", Fig1},
		{"fig2", "Bandwidth statistics for the page-rank application", Fig2},
		{"fig3", "Bandwidth statistics for the als application", Fig3},
		{"tab-prefetch", "Software-prefetch micro-benchmark (Section 4.3)", PrefetchTable},
		{"fig5", "GC time for various applications", Fig5},
		{"fig6", "NVM bandwidth during GC", Fig6},
		{"fig7", "Split NVM bandwidth during GC for three applications", Fig7},
		{"fig8", "Tail-latency reduction for Cassandra", Fig8},
		{"fig9", "Application time reduction", Fig9},
		{"fig10", "Results with different header map sizes", Fig10},
		{"fig11", "Results with different write cache settings", Fig11},
		{"fig12", "Cost-efficiency analysis", Fig12},
		{"fig13", "GC scalability", Fig13},
		{"fig14", "GC time for PS", Fig14},
		{"tab-device", "Simulated device characterization (Section 2 substrate)", DeviceTable},
		{"abl-traversal", "DFS vs BFS traversal ablation (Section 4.3)", AblTraversal},
		{"abl-nt", "Non-temporal write-back ablation (Section 4.1)", AblNonTemporal},
		{"abl-flush-chunk", "Flush-granularity ablation (Section 4.2)", AblFlushChunk},
		{"abl-hm-threads", "Header-map threshold ablation (Section 3.3)", AblHeaderMapThreshold},
		{"crash-sweep", "Power-failure campaign: recovery outcome x phase x config", CrashSweep},
		{"tier-sweep", "Young generation and write cache across memory tiers", TierSweep},
		{"fault-sweep", "Faulty-NVM campaign: survival and self-healing vs wear rate", FaultSweep},
		{"workload-sweep", "Collector configurations across YCSB scenario mixes", WorkloadSweep},
		{"fleet", "Fleet-scale tail latency under open-loop load", FleetBench},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// machineConfig is the standard simulated host for every experiment, and
// the only place the run-wide machine parameters reach one: the scheduler
// mode and the -nvm-tier substitution, which swaps the default "nvm" tier
// for the named built-in one (kept under the name "nvm", and persistent,
// so every placement keeps resolving). A spec that declares its own
// topology replaces Tiers afterwards.
func (p Params) machineConfig(trace bool) memsim.Config {
	cfg := memsim.DefaultConfig()
	if !trace {
		cfg.TraceBucket = 0
	}
	cfg.EagerYield = p.EagerYield
	if p.NVMTier != "" {
		spec := memsim.MustBuiltinTier(p.NVMTier)
		spec.Name, spec.Persistent = "nvm", true
		cfg.Tiers[1] = spec
	}
	return cfg
}

// host is the paper-scaled host (workload.PaperHost) on the run-wide
// machine, running opt under G1 over an NVM heap. Figure points override
// its placement, topology or collector from there.
func (p Params) host(opt gc.Options) workload.HostSpec {
	h := workload.PaperHost()
	h.Machine = p.machineConfig(false)
	h.Opt = opt
	return h
}

// The two placements the figures compare an NVM heap against (Section
// 5.2): the whole heap on DRAM, and only the young generation on it.
var (
	dramHeap    = heap.AllOn("dram")
	youngOnDRAM = heap.PlacementPolicy{Eden: "dram", Survivor: "dram"}
)

// runSpec describes one scenario run.
type runSpec struct {
	app     workload.Spec
	host    workload.HostSpec
	threads int
	scale   float64
	seed    uint64
}

// runOut is one experiment data point's output: the workload result plus
// the host it ran on (machine for traces and marks, collector for its
// header map).
type runOut struct {
	res workload.Result
	workload.Host
}

// runAll executes all specs on the bounded host worker pool (see
// Params.Parallel) and returns the results in spec order. Each spec builds
// its own Machine, so points are independent and the fan-out cannot change
// any virtual-time result.
func runAll(p Params, specs []runSpec) ([]runOut, error) {
	return par.Map(len(specs), p.Parallel, func(i int) (runOut, error) {
		return runOne(specs[i])
	})
}

// runOne executes one scenario run on a freshly assembled host.
func runOne(spec runSpec) (runOut, error) {
	host, err := workload.NewHost(spec.host)
	if err != nil {
		return runOut{}, err
	}
	r, err := spec.app.NewRunner(host.Col, workload.Config{
		GCThreads: spec.threads,
		Scale:     spec.scale,
		Seed:      spec.seed,
	})
	if err != nil {
		return runOut{}, err
	}
	res, err := r.Run()
	return runOut{res: res, Host: host}, err
}

// seconds converts virtual time to float seconds.
func seconds(t memsim.Time) float64 { return float64(t) / float64(memsim.Second) }

// ms converts virtual time to float milliseconds.
func ms(t memsim.Time) float64 { return float64(t) / float64(memsim.Millisecond) }

// appList returns the experiment's application set: quickSet under Quick,
// else every paper profile (the legacy scenarios, in the alphabetical
// order of the fig. 5 axis).
func appList(p Params, quickSet []string) ([]workload.Spec, error) {
	if p.Quick {
		return scenarios(quickSet)
	}
	var out []workload.Spec
	for _, s := range workload.Scenarios() {
		if s.Family == "legacy" {
			out = append(out, s)
		}
	}
	return out, nil
}

// scenarios resolves application names through the scenario registry.
func scenarios(names []string) ([]workload.Spec, error) {
	out := make([]workload.Spec, len(names))
	for i, name := range names {
		s, err := workload.ScenarioByName(name)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// The figures' named application lists; each name must resolve to a
// paper profile (TestFigureAppsResolve).
var (
	defaultQuickApps = []string{"akka-uct", "als", "naive-bayes", "page-rank"}
	fig1Apps         = []string{"als", "kmeans", "log-regression", "movie-lens", "page-rank", "scala-stm-bench7"}
	fig1QuickApps    = []string{"movie-lens", "page-rank"}
	fig7Apps         = []string{"page-rank", "naive-bayes", "akka-uct"}
	traversalApps    = []string{"page-rank", "movie-lens"}
	writeBackApps    = []string{"naive-bayes", "page-rank"}
	tierQuickApps    = []string{"als", "page-rank"}
)

// gcBandwidthMBps computes the average NVM bandwidth during GC pauses
// from per-collection device deltas.
func gcBandwidthMBps(collections []gc.CollectionStats) float64 {
	var bytes int64
	var pause memsim.Time
	for _, c := range collections {
		bytes += c.NVM.Total()
		pause += c.Pause
	}
	if pause == 0 {
		return 0
	}
	return float64(bytes) / 1e6 / seconds(pause)
}

// ratio guards division.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
