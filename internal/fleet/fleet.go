// Package fleet scales the single-server cassandra-stress model
// (internal/cassandra, the paper's Figure 8) to a sharded serving fleet:
// N server instances — each its own memsim.Machine, heap, and collector,
// running a registered workload scenario — behind a load balancer that
// drives an open-loop request stream with zipfian tenant-to-shard skew,
// request hedging, and bounded retries. Requests issued during a GC
// pause queue instead of politely waiting, so collector choice shows up
// exactly where the paper says it does: in the fleet-wide tail
// (p99/p999/p9999), computed by deterministically merging the
// per-instance latency series.
//
// Instances fan out over the internal/par host pool like the bench
// harness: each instance is an independent machine, deterministic given
// its derived seed, and the traffic simulation over the merged pause
// timelines is host math whose draw producer goroutine decides no value
// or order — so every fleet figure is byte-identical at any -parallel
// setting, on any number of host cores, and in both scheduler modes.
package fleet

import (
	"fmt"
	"math"

	"nvmgc/internal/cassandra"
	"nvmgc/internal/gc"
	"nvmgc/internal/memsim"
	"nvmgc/internal/metrics"
	"nvmgc/internal/par"
	"nvmgc/internal/workload"
	"nvmgc/internal/workload/generator"
)

// Config describes one fleet run: the instance side (how each server's
// memory behaves) and the serving side (how traffic reaches the fleet).
type Config struct {
	// Instances is the fleet size (1..MaxInstances).
	Instances int
	// Scenario names the registered workload scenario each instance
	// runs (workload.ScenarioByName resolves it). Empty selects
	// "cassandra-write", the paper's insert-heavy server phase.
	Scenario string
	// Service is the mean request service time outside GC pauses
	// (0 selects 60µs, the cassandra write-phase default).
	Service memsim.Time
	// Servers is the per-instance request parallelism (0 selects 16).
	Servers int
	// GCThreads, Scale, Seed parameterize each instance's workload run
	// (zeros select 16, 0.5, 1). Instance i derives its own seed from
	// Seed, so GC pauses stagger across the fleet like real servers.
	GCThreads int
	Scale     float64
	Seed      uint64
	// Opt selects the collector configuration every instance runs.
	Opt gc.Options

	// QPS is the fleet-wide open-loop arrival rate (requests per
	// virtual second).
	QPS float64
	// Tenants and Theta shape the zipfian tenant-to-shard skew
	// (zeros select 256 tenants at the standard YCSB skew).
	Tenants int64
	Theta   float64
	// HedgeAfter, RetryAfter, MaxRetries configure the router (see
	// Traffic); zeros disable hedging and retries.
	HedgeAfter memsim.Time
	RetryAfter memsim.Time
	MaxRetries int

	// Parallel bounds the host pool that fans out instance runs
	// (0 = NumCPU, 1 = serial); results are identical at any setting.
	Parallel int
	// EagerYield runs every instance machine in the reference
	// scheduling mode; results are identical.
	EagerYield bool
	// Tiers, when non-nil, replaces each instance machine's default
	// dram+nvm topology (e.g. to install a media-fault model or an eADR
	// tier).
	Tiers []memsim.TierSpec
	// Record retains per-request routing traces (tests only).
	Record bool
}

// MaxInstances bounds the fleet size (a fleet is one machine per
// instance; the cap keeps a typo'd flag from allocating hundreds).
const MaxInstances = 256

// withDefaults resolves zero fields to their documented defaults.
func (c Config) withDefaults() Config {
	if c.Scenario == "" {
		c.Scenario = "cassandra-write"
	}
	if c.Service == 0 {
		c.Service = 60 * memsim.Microsecond
	}
	if c.Servers == 0 {
		c.Servers = 16
	}
	if c.GCThreads == 0 {
		c.GCThreads = 16
	}
	if c.Scale == 0 {
		c.Scale = 0.5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Tenants == 0 {
		c.Tenants = 256
	}
	if c.Theta == 0 {
		c.Theta = generator.ZipfianConstant
	}
	return c
}

// Validate rejects a bad configuration up front, before any instance
// machine is built (front ends call it right after flag parsing).
func (c Config) Validate() error {
	d := c.withDefaults()
	if c.Instances < 1 || c.Instances > MaxInstances {
		return fmt.Errorf("fleet: %d instances, want 1..%d", c.Instances, MaxInstances)
	}
	if c.Parallel < 0 {
		return fmt.Errorf("fleet: negative parallel %d (0 means all cores, 1 serial)", c.Parallel)
	}
	if !(c.Scale >= 0) || math.IsInf(c.Scale, 1) {
		return fmt.Errorf("fleet: scale %g, want a finite value >= 0 (0 selects 0.5)", c.Scale)
	}
	if c.GCThreads < 0 || c.GCThreads > memsim.MaxWorkers {
		return fmt.Errorf("fleet: GC thread count %d, want 0 (default) to %d", c.GCThreads, memsim.MaxWorkers)
	}
	if _, err := workload.ScenarioByName(d.Scenario); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	return d.traffic().Validate()
}

// traffic projects the serving-side parameters.
func (c Config) traffic() Traffic {
	return Traffic{
		QPS: c.QPS, Service: c.Service, Servers: c.Servers,
		Tenants: c.Tenants, Theta: c.Theta,
		HedgeAfter: c.HedgeAfter, RetryAfter: c.RetryAfter, MaxRetries: c.MaxRetries,
		Seed: c.Seed, Record: c.Record,
	}
}

// Instance is one server's run: its pause timeline (run-window-relative)
// plus the workload fingerprint the determinism suite compares.
type Instance struct {
	ID   int
	Seed uint64
	// Pauses are the GC pause intervals, normalized so the run window
	// starts at 0 (setup excluded, like the single-server model).
	Pauses []cassandra.Interval
	// Window is the instance's run window (virtual time).
	Window memsim.Time
	// Workload fingerprint: identical at any -parallel and in both
	// scheduler modes.
	Ops       int64
	Allocated int64
	GCs       int
	MaxPause  memsim.Time
	// Fault accounting (non-zero only under a fault-model topology).
	Faults  gc.FaultCosts
	Retired int
}

// instanceSeed derives instance i's workload seed: a splitmix64-style
// stride off the fleet seed, so instances run the same scenario out of
// phase with each other.
func instanceSeed(seed uint64, id int) uint64 {
	s := seed + uint64(id)*0x9E3779B97F4A7C15
	if s == 0 {
		s = 1
	}
	return s
}

// RunInstances executes the fleet's server side: Instances independent
// machines fanned out over the host pool, merged in instance order.
func RunInstances(cfg Config) ([]Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := cfg.withDefaults()
	spec, err := workload.ScenarioByName(c.Scenario)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return par.Map(c.Instances, c.Parallel, func(i int) (Instance, error) {
		inst, err := runInstance(c, spec, i)
		if err != nil {
			return Instance{}, fmt.Errorf("fleet: instance %d: %w", i, err)
		}
		return inst, nil
	})
}

// runInstance builds one server on the keyed-population host, runs its
// scenario, and extracts the normalized pause timeline.
func runInstance(c Config, spec workload.Spec, id int) (Instance, error) {
	s := workload.KeyedHost()
	s.Machine.TraceBucket = 0
	s.Machine.EagerYield = c.EagerYield
	if c.Tiers != nil {
		s.Machine.Tiers = c.Tiers
	}
	for _, ts := range c.Tiers {
		if ts.Fault.Enabled() {
			s.Heap.Poison = true // poison tracking, like the fault sweep
		}
	}
	s.Opt = c.Opt
	host, err := workload.NewHost(s)
	if err != nil {
		return Instance{}, err
	}
	seed := instanceSeed(c.Seed, id)
	r, err := spec.NewRunner(host.Col, workload.Config{
		GCThreads: c.GCThreads, Scale: c.Scale, Seed: seed,
	})
	if err != nil {
		return Instance{}, err
	}
	start := host.M.Now()
	res, err := r.Run()
	if err != nil {
		return Instance{}, err
	}
	runStart := start + res.Setup
	raw := cassandra.PauseIntervals(host.M, runStart, host.M.Now())
	pauses := make([]cassandra.Interval, len(raw))
	for i, p := range raw {
		pauses[i] = cassandra.Interval{Start: p.Start - runStart, End: p.End - runStart}
	}
	tot := res.GCTotals()
	return Instance{
		ID: id, Seed: seed,
		Pauses: pauses, Window: res.Total,
		Ops: res.Ops, Allocated: res.Allocated,
		GCs: tot.Collections, MaxPause: tot.MaxPause,
		Faults: tot.Faults, Retired: host.H.RetiredCount(),
	}, nil
}

// Summary is the fleet-wide latency distribution (nearest-rank
// quantiles of the merged series, in milliseconds).
type Summary struct {
	Requests int64
	MeanMs   float64
	P50ms    float64
	P99ms    float64
	P999ms   float64
	P9999ms  float64
	MaxMs    float64
}

// Summarize computes the fleet summary of an ascending latency series.
func Summarize(sorted []float64) Summary {
	s := Summary{Requests: int64(len(sorted))}
	if len(sorted) == 0 {
		return s
	}
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	s.MeanMs = sum / float64(len(sorted))
	s.P50ms, s.P99ms = metrics.Quantile(sorted, 50), metrics.Quantile(sorted, 99)
	s.P999ms, s.P9999ms = metrics.Quantile(sorted, 99.9), metrics.Quantile(sorted, 99.99)
	s.MaxMs = sorted[len(sorted)-1]
	return s
}

// ServeResult is the serving side's outcome over already-run instances.
type ServeResult struct {
	// Window is the served window: the shortest instance run window, so
	// every arrival lands where all pause timelines are defined.
	Window memsim.Time
	// PerInstance holds each instance's ascending latency series
	// (attributed to the instance that served the winning arm).
	PerInstance [][]float64
	// Merged is the fleet-wide ascending series.
	Merged  []float64
	Summary Summary
	Stats   Stats
	Traces  []RequestTrace
}

// Serve routes the open-loop stream over the instances' pause timelines.
func Serve(insts []Instance, tr Traffic) (*ServeResult, error) {
	if len(insts) == 0 {
		return nil, fmt.Errorf("fleet: no instances to serve")
	}
	window := insts[0].Window
	tls := make([]*cassandra.Timeline, len(insts))
	for i := range insts {
		tls[i] = cassandra.NewTimeline(insts[i].Pauses)
		if insts[i].Window < window {
			window = insts[i].Window
		}
	}
	perInst, stats, traces, err := SimulateTraffic(tls, window, tr)
	if err != nil {
		return nil, err
	}
	merged := MergeSorted(perInst)
	return &ServeResult{
		Window: window, PerInstance: perInst, Merged: merged,
		Summary: Summarize(merged), Stats: stats, Traces: traces,
	}, nil
}

// Result is one complete fleet run.
type Result struct {
	Instances []Instance
	*ServeResult
}

// Run executes the whole fleet experiment: instances over the host
// pool, then the traffic simulation over their merged timelines.
func Run(cfg Config) (*Result, error) {
	insts, err := RunInstances(cfg)
	if err != nil {
		return nil, err
	}
	sr, err := Serve(insts, cfg.withDefaults().traffic())
	if err != nil {
		return nil, err
	}
	return &Result{Instances: insts, ServeResult: sr}, nil
}
