package fleet

import (
	"math"
	"reflect"
	"testing"

	"nvmgc/internal/gc"
	"nvmgc/internal/memsim"
)

// testConfig is the small fleet the package tests run: a keyed scenario
// (so per-instance op streams are part of the fingerprint), hedging and
// retries on.
func testConfig() Config {
	return Config{
		Instances: 3, Scenario: "ycsb-a", QPS: 90_000,
		HedgeAfter: 1 * memsim.Millisecond,
		RetryAfter: 4 * memsim.Millisecond, MaxRetries: 2,
		Opt: gc.Optimized(), Record: true,
	}
}

// TestFleetDeterminism is the fleet half of the scheduler-equivalence
// net: the whole Result — per-instance op streams, pause timelines,
// merged latency series, router stats — must be identical at -parallel
// 1, 2, and 8, in both scheduler modes, and across repeated runs.
func TestFleetDeterminism(t *testing.T) {
	base := testConfig()
	base.Parallel = 1
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if want.Summary.Requests == 0 {
		t.Fatal("reference run served no requests")
	}
	for _, in := range want.Instances {
		if in.Ops == 0 {
			t.Fatalf("instance %d reported no ops — keyed fingerprint lost", in.ID)
		}
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"parallel=2", func(c *Config) { c.Parallel = 2 }},
		{"parallel=8", func(c *Config) { c.Parallel = 8 }},
		{"eager scheduler", func(c *Config) { c.EagerYield = true }},
		{"eager parallel=8", func(c *Config) { c.EagerYield = true; c.Parallel = 8 }},
		{"repeat run", func(c *Config) {}},
	}
	for _, tc := range cases {
		cfg := testConfig()
		cfg.Parallel = 1
		tc.mut(&cfg)
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got.Instances, want.Instances) {
			t.Errorf("%s: instance results diverged", tc.name)
		}
		if !reflect.DeepEqual(got.Merged, want.Merged) {
			t.Errorf("%s: merged latency series diverged", tc.name)
		}
		if got.Stats != want.Stats {
			t.Errorf("%s: router stats diverged:\n%+v\n%+v", tc.name, got.Stats, want.Stats)
		}
		if got.Summary != want.Summary {
			t.Errorf("%s: summary diverged:\n%+v\n%+v", tc.name, got.Summary, want.Summary)
		}
	}
}

// TestFleetSeedsStagger checks instances actually run out of phase: the
// derived seeds differ and so do the pause timelines.
func TestFleetSeedsStagger(t *testing.T) {
	cfg := testConfig()
	cfg.Instances = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.Instances[0], res.Instances[1]
	if a.Seed == b.Seed {
		t.Fatal("instances share a workload seed")
	}
	if reflect.DeepEqual(a.Pauses, b.Pauses) {
		t.Fatal("instances pause in lockstep — the fleet staggering is lost")
	}
	if res.Stats.Commits != res.Stats.Requests {
		t.Fatalf("%d commits for %d requests", res.Stats.Commits, res.Stats.Requests)
	}
}

// TestFleetFaultTier runs the fleet over a media-fault NVM topology
// (the PR-6 fault model) and checks the run completes with retirement
// accounting intact: the collector's retry count must equal its
// transient-fault count, and the aggressive wear threshold must actually
// retire lines.
func TestFleetFaultTier(t *testing.T) {
	tiers := memsim.WithFault(memsim.DefaultConfig().Tiers, memsim.FaultModel{
		Seed:                0xfa17,
		TransientReadPPM:    2000,
		WearThresholdMean:   24,
		WearThresholdSpread: 6,
		DegradeUETrip:       24,
	})
	cfg := testConfig()
	cfg.Instances = 2
	cfg.Tiers = tiers
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var transient, retries, retired int64
	for _, in := range res.Instances {
		transient += in.Faults.TransientFaults
		retries += in.Faults.Retries
		retired += int64(in.Retired)
	}
	if transient == 0 {
		t.Fatal("fault topology produced no transient faults")
	}
	if retries != transient {
		t.Fatalf("retirement accounting broken: %d retries for %d transient faults", retries, transient)
	}
	if retired == 0 {
		t.Fatal("wear threshold 24 should have retired lines")
	}
	if res.Stats.Commits != res.Stats.Requests {
		t.Fatalf("%d commits for %d requests under faults", res.Stats.Commits, res.Stats.Requests)
	}
	if res.Summary.P999ms < res.Summary.P99ms || res.Summary.P9999ms < res.Summary.P999ms {
		t.Fatalf("tail percentiles inverted: %+v", res.Summary)
	}
}

// TestConfigValidate walks each invalid configuration.
func TestConfigValidate(t *testing.T) {
	base := testConfig()
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero instances", func(c *Config) { c.Instances = 0 }},
		{"oversized fleet", func(c *Config) { c.Instances = MaxInstances + 1 }},
		{"unknown scenario", func(c *Config) { c.Scenario = "no-such-workload" }},
		{"zero qps", func(c *Config) { c.QPS = 0 }},
		{"NaN qps", func(c *Config) { c.QPS = math.NaN() }},
		{"infinite qps", func(c *Config) { c.QPS = math.Inf(1) }},
		{"negative parallel", func(c *Config) { c.Parallel = -1 }},
		{"negative scale", func(c *Config) { c.Scale = -1 }},
		{"NaN scale", func(c *Config) { c.Scale = math.NaN() }},
		{"infinite scale", func(c *Config) { c.Scale = math.Inf(1) }},
		{"negative gc threads", func(c *Config) { c.GCThreads = -1 }},
		{"too many gc threads", func(c *Config) { c.GCThreads = memsim.MaxWorkers + 1 }},
		{"negative hedge", func(c *Config) { c.HedgeAfter = -1 }},
		{"bad theta", func(c *Config) { c.Theta = 1.5 }},
		{"NaN theta", func(c *Config) { c.Theta = math.NaN() }},
		{"too many servers", func(c *Config) { c.Servers = MaxServers + 1 }},
		{"servers 1<<62", func(c *Config) { c.Servers = 1 << 62 }},
		{"too many tenants", func(c *Config) { c.Tenants = MaxTenants + 1 }},
		{"tenants 1e12", func(c *Config) { c.Tenants = 1e12 }},
	}
	for _, tc := range cases {
		cfg := testConfig()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted", tc.name)
		}
	}
	if _, err := Serve(nil, base.withDefaults().traffic()); err == nil {
		t.Error("Serve with no instances: accepted")
	}
}

// TestSummarizeEmpty pins the zero-value summary.
func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Requests != 0 || s.MeanMs != 0 || s.MaxMs != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}
