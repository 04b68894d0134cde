package oracle

import (
	"fmt"
	"strings"

	"nvmgc/internal/check"
	"nvmgc/internal/gc"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
	"nvmgc/internal/par"
	"nvmgc/internal/workload"
)

// threads is the GC thread count of every replayed collection.
const threads = 4

// Config names one collector configuration the differential campaign
// replays traces through.
type Config struct {
	Name      string
	Collector string // "ref", "g1", or "ps"
	Opt       gc.Options
	Topology  string // "2tier" or "3tier"

	// Fault, when enabled, is installed on the environment's NVM tier: the
	// replay then also exercises the collector's media-fault resilience
	// (retried reads, copy re-routing, region retirement). The reference
	// replay stays fault-free — resilience must preserve the live graph
	// exactly, so the differential comparison is unchanged.
	Fault memsim.FaultModel
}

// refConfig returns the reference-collector configuration for a topology.
func refConfig(topology string) Config {
	return Config{Name: "ref/" + topology, Collector: "ref", Topology: topology}
}

// Configs returns the real collector configurations under differential
// test: {G1, PS, +writecache, +all} x {2-tier, 3-tier}, all with the
// phase-boundary invariant checker on. The "+all" configuration lowers
// the header-map thread threshold so the map is actually exercised at the
// campaign's thread count.
func Configs() []Config {
	all := gc.Optimized()
	all.HeaderMapMinThreads = 1
	base := []struct {
		name, col string
		opt       gc.Options
	}{
		{"g1-vanilla", "g1", gc.Vanilla()},
		{"ps-vanilla", "ps", gc.Vanilla()},
		{"g1-writecache", "g1", gc.WithWriteCache()},
		{"g1-all", "g1", all},
	}
	var out []Config
	for _, topo := range []string{"2tier", "3tier"} {
		for _, b := range base {
			opt := b.opt
			opt.Check = true
			out = append(out, Config{
				Name:      b.name + "/" + topo,
				Collector: b.col,
				Opt:       opt,
				Topology:  topo,
			})
		}
	}
	return out
}

// FaultConfigs returns the fault-injection arm of the campaign: the real
// collector configurations replayed with a media-fault model on the NVM
// tier — transient read faults on every config, plus wear-driven hard
// errors (aggressive enough to retire regions within one trace) on the
// write-heavy ones. The reference replay stays fault-free, so any graph
// damage the resilience protocol fails to heal shows up as a differential
// failure.
func FaultConfigs() []Config {
	transient := memsim.FaultModel{Seed: 0x5eed_fa17, TransientReadPPM: 2000}
	// Oracle traces are tiny (hundreds of ops, a few hundred line writes
	// per replay, hottest line in the low twenties), so the wear threshold
	// sits low enough that hot lines die within one trace.
	// The write-cache/header-map configs serve most GC reads from DRAM, so
	// their NVM probe count is tiny — the transient rate is cranked up to
	// still observe retried reads within one trace.
	wear := memsim.FaultModel{
		Seed:                0x5eed_fa17,
		TransientReadPPM:    20000,
		WearThresholdMean:   12,
		WearThresholdSpread: 4,
		DegradeUETrip:       8,
	}
	all := gc.Optimized()
	all.HeaderMapMinThreads = 1
	base := []struct {
		name, col string
		opt       gc.Options
		fm        memsim.FaultModel
	}{
		{"g1-vanilla+transient", "g1", gc.Vanilla(), transient},
		{"ps-vanilla+transient", "ps", gc.Vanilla(), transient},
		{"g1-writecache+wear", "g1", gc.WithWriteCache(), wear},
		{"g1-all+wear", "g1", all, wear},
	}
	var out []Config
	for _, b := range base {
		opt := b.opt
		opt.Check = true
		out = append(out, Config{
			Name:      b.name + "/2tier",
			Collector: b.col,
			Opt:       opt,
			Topology:  "2tier",
			Fault:     b.fm,
		})
	}
	return out
}

// newEnv builds a small, GC-frequent host for one replay of c: the
// machine, the heap, and c's collector (an option-free G1 under the
// reference replay, which ignores it). The 3-tier topology adds a remote-DRAM tier
// and places the write cache on it, so the campaign also covers the
// pluggable-placement paths.
func newEnv(c Config) (workload.Host, error) {
	s := workload.HostSpec{Machine: memsim.DefaultConfig(), Heap: heap.DefaultConfig(), PS: c.Collector == "ps", Opt: c.Opt}
	s.Machine.LLCBytes = 1 << 16
	hc := &s.Heap
	if c.Topology == "3tier" {
		s.Machine.Tiers = append(s.Machine.Tiers,
			memsim.TierSpec{Name: "remote-dram", Profile: memsim.RemoteDRAMProfile()})
		hc.Placement.Cache = "remote-dram"
	}
	if c.Fault.Enabled() {
		s.Machine.Tiers = memsim.WithFault(s.Machine.Tiers, c.Fault)
	}
	hc.RegionBytes = 4 << 10
	hc.HeapRegions = 64
	hc.CacheRegions = 16
	hc.EdenRegions = 4 // tiny eden: implicit collections fire often
	hc.SurvivorRegions = 8
	hc.AuxBytes = 1 << 20
	hc.RootSlots = 512
	hc.Poison = true
	host, err := workload.NewHost(s)
	if err != nil {
		return workload.Host{}, err
	}
	h := host.H
	if _, err := h.Klasses.Define("node", 8, []int32{2, 3}); err != nil {
		return workload.Host{}, err
	}
	if _, err := h.Klasses.DefineArray("prim[]", false); err != nil {
		return workload.Host{}, err
	}
	if _, err := h.Klasses.DefineArray("ref[]", true); err != nil {
		return workload.Host{}, err
	}
	return host, nil
}

// statsSane checks one collection's figures for internal consistency
// (the differential graph check cannot see accounting bugs).
func statsSane(s gc.CollectionStats) error {
	if s.Pause <= 0 {
		return fmt.Errorf("oracle: non-positive pause %d", s.Pause)
	}
	if s.ObjectsPromoted > s.ObjectsCopied {
		return fmt.Errorf("oracle: promoted %d > copied %d", s.ObjectsPromoted, s.ObjectsCopied)
	}
	if min := s.ObjectsCopied * heap.HeaderWords * heap.WordBytes; s.BytesCopied < min {
		return fmt.Errorf("oracle: %d bytes copied for %d objects (min %d)", s.BytesCopied, s.ObjectsCopied, min)
	}
	if s.ReadMostly < 0 || s.WriteOnly < 0 || s.PersistBarrier < 0 || s.Cleanup < 0 {
		return fmt.Errorf("oracle: negative phase time in %+v", s)
	}
	if got := s.ReadMostly + s.WriteOnly + s.PersistBarrier + s.Cleanup; got != s.Pause {
		return fmt.Errorf("oracle: phase times sum to %d, pause is %d", got, s.Pause)
	}
	return nil
}

// RunTrace replays one trace under one configuration on a fresh
// environment.
func RunTrace(c Config, ops []Op) (*Result, error) {
	host, err := newEnv(c)
	if err != nil {
		return nil, err
	}
	return runTraceOn(c, host, ops)
}

// runTraceOn replays one trace on a caller-built environment (tests use
// this to inspect the machine afterwards).
func runTraceOn(c Config, host workload.Host, ops []Op) (*Result, error) {
	h := host.H
	var collect func(kind int) error
	switch c.Collector {
	case "ref":
		rc := NewRefCollector(h)
		collect = func(int) error {
			// The reference heap gets the same invariant scrutiny as the
			// real collectors' (gc.Options.Check runs these for them).
			if err := check.AtBoundary(check.PreGC, check.State{Heap: h}); err != nil {
				return err
			}
			if err := rc.Collect(); err != nil {
				return err
			}
			return check.AtBoundary(check.PostGC, check.State{Heap: h})
		}
	case "g1", "ps":
		col := host.Col
		collect = func(kind int) error {
			var s gc.CollectionStats
			var err error
			switch kind {
			case 2:
				s, err = col.CollectFull(threads)
			case 1:
				s, err = col.CollectMixed(threads, 4)
			default:
				s, err = col.Collect(threads)
			}
			if err != nil {
				return err
			}
			return statsSane(s)
		}
	default:
		return nil, fmt.Errorf("oracle: unknown collector %q", c.Collector)
	}
	return Replay(h, host.M, collect, ops)
}

// diffResults compares a configuration's replay against the reference's:
// snapshot-by-snapshot canonical live-graph equality.
func diffResults(got, ref *Result) error {
	if len(got.Snapshots) != len(ref.Snapshots) {
		return fmt.Errorf("oracle: %d snapshots, reference took %d", len(got.Snapshots), len(ref.Snapshots))
	}
	for i := range got.Snapshots {
		if err := check.Diff(got.Snapshots[i], ref.Snapshots[i]); err != nil {
			return fmt.Errorf("snapshot %d of %d: %w", i+1, len(got.Snapshots), err)
		}
	}
	return nil
}

// Failure describes one failed differential run: the seed, the
// configuration, the first violated invariant or graph difference, and
// the shrunk trace that still reproduces it.
type Failure struct {
	Seed   uint64
	Dist   string // object-id selection distribution of the trace
	Config string
	Err    string
	Trace  []Op
}

func (f *Failure) String() string {
	return fmt.Sprintf("seed %d (%s ids), config %s:\n  %s\nminimal trace (%d ops):\n%s",
		f.Seed, f.Dist, f.Config, f.Err, len(f.Trace), FormatTrace(f.Trace))
}

// shrinkBudget bounds the replays one shrink is allowed to spend.
const shrinkBudget = 200

// Shrink minimizes ops with bounded chunk-removal delta debugging: it
// returns the smallest sub-trace found for which fails still holds.
func Shrink(ops []Op, fails func([]Op) bool, budget int) []Op {
	cur := ops
	n := 2
	evals := 0
	for len(cur) >= 2 && evals < budget {
		chunk := (len(cur) + n - 1) / n
		removed := false
		for start := 0; start < len(cur) && evals < budget; start += chunk {
			end := start + chunk
			if end > len(cur) {
				end = len(cur)
			}
			cand := make([]Op, 0, len(cur)-(end-start))
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[end:]...)
			if len(cand) == 0 {
				continue
			}
			evals++
			if fails(cand) {
				cur = cand
				if n > 2 {
					n--
				}
				removed = true
				break
			}
		}
		if !removed {
			if chunk == 1 {
				break
			}
			n *= 2
			if n > len(cur) {
				n = len(cur)
			}
		}
	}
	return cur
}

// failsWith builds the shrink predicate for one configuration: the
// sub-trace still fails if the reference errors, the configuration
// errors, or their snapshots diverge.
func failsWith(c Config, ref Config) func([]Op) bool {
	return func(sub []Op) bool {
		refRes, err := RunTrace(ref, sub)
		if err != nil {
			return c.Collector == "ref" // a reference failure only counts for the reference run
		}
		if c.Collector == "ref" {
			return false
		}
		res, err := RunTrace(c, sub)
		if err != nil {
			return true
		}
		return diffResults(res, refRes) != nil
	}
}

// RunSeedDist generates one trace with the named object-id distribution
// (see TraceDists) and replays it through the reference and every real
// configuration, returning the first failure (shrunk) or nil.
func RunSeedDist(seed uint64, nops int, dist string) *Failure {
	ops := GenerateDist(seed, nops, dist)
	fail := func(c Config, err error) *Failure {
		shrunk := Shrink(ops, failsWith(c, refConfig(c.Topology)), shrinkBudget)
		return &Failure{Seed: seed, Dist: dist, Config: c.Name, Err: err.Error(), Trace: shrunk}
	}
	refs := make(map[string]*Result, 2)
	for _, topo := range []string{"2tier", "3tier"} {
		res, err := RunTrace(refConfig(topo), ops)
		if err != nil {
			return fail(refConfig(topo), err)
		}
		refs[topo] = res
	}
	// The live graph is topology-independent: the two reference replays
	// must agree with each other before anything else is compared.
	if err := diffResults(refs["3tier"], refs["2tier"]); err != nil {
		return fail(refConfig("3tier"), err)
	}
	for _, c := range append(Configs(), FaultConfigs()...) {
		res, err := RunTrace(c, ops)
		if err != nil {
			return fail(c, err)
		}
		if err := diffResults(res, refs[c.Topology]); err != nil {
			return fail(c, err)
		}
	}
	return nil
}

// Report is a campaign's deterministic outcome: same seeds, same verdict.
type Report struct {
	Runs     int
	Ops      int
	BaseSeed uint64
	Configs  []string
	Failures []*Failure
}

// Passed reports whether every run passed.
func (r *Report) Passed() bool { return len(r.Failures) == 0 }

// String renders the campaign outcome, including every shrunk failing
// trace.
func (r *Report) String() string {
	var b strings.Builder
	names := make([]string, 0, len(r.Configs))
	names = append(names, r.Configs...)
	fmt.Fprintf(&b, "selfcheck: %d runs x %d ops (base seed %d, id dists %s) through %s\n",
		r.Runs, r.Ops, r.BaseSeed, strings.Join(TraceDists(), "/"), strings.Join(names, ", "))
	if r.Passed() {
		fmt.Fprintf(&b, "selfcheck: PASS — all live graphs matched the reference collector\n")
		return b.String()
	}
	fmt.Fprintf(&b, "selfcheck: FAIL — %d of %d runs diverged\n", len(r.Failures), r.Runs)
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "\n%s", f)
	}
	return b.String()
}

// Campaign runs the differential campaign: `runs` seeded traces of
// `nops` ops each, fanned out over `parallel` host workers (0 = all
// cores). Seeds are derived from baseSeed so the whole campaign is
// reproducible from one number. A negative count is an error.
func Campaign(runs, nops int, baseSeed uint64, parallel int) (*Report, error) {
	if runs < 0 || nops < 0 {
		return nil, fmt.Errorf("oracle: campaign of %d runs x %d ops: negative count", runs, nops)
	}
	dists := TraceDists()
	fails, err := par.Map(runs, parallel, func(i int) (*Failure, error) {
		// Rotate the id-selection distribution deterministically across
		// runs: run order never changes which run gets which skew.
		return RunSeedDist(baseSeed+uint64(i)*1000003, nops, dists[i%len(dists)]), nil
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{Runs: runs, Ops: nops, BaseSeed: baseSeed}
	rep.Configs = append(rep.Configs, refConfig("2tier").Name, refConfig("3tier").Name)
	for _, c := range append(Configs(), FaultConfigs()...) {
		rep.Configs = append(rep.Configs, c.Name)
	}
	for _, f := range fails {
		if f != nil {
			rep.Failures = append(rep.Failures, f)
		}
	}
	return rep, nil
}
