package fleet

import (
	"math"
	"reflect"
	"testing"

	"nvmgc/internal/gc"
	"nvmgc/internal/memsim"
)

// testConfig is the small fleet the package tests run, on a keyed
// scenario.
func testConfig() Config {
	return Config{Instances: 3, Scenario: "ycsb-a", QPS: 90_000, Opt: gc.Optimized()}
}

// run runs cfg's instances and serves benchTraffic over them.
func run(cfg Config) ([]Instance, *ServeResult, error) {
	insts, err := RunInstances(cfg)
	if err != nil {
		return nil, nil, err
	}
	sr, err := Serve(insts, benchTraffic())
	return insts, sr, err
}

// TestFleetDeterminism: the instances' pause timelines and the served
// outcome (merged latency series, router stats) must be identical at
// Parallel 1, 2, and 8 and across repeated runs.
func TestFleetDeterminism(t *testing.T) {
	base := testConfig()
	base.Parallel = 1
	wantInsts, want, err := run(base)
	if err != nil {
		t.Fatal(err)
	}
	if want.Summary.Requests == 0 {
		t.Fatal("reference run served no requests")
	}
	for _, in := range wantInsts {
		if len(in.Pauses) == 0 {
			t.Fatalf("instance %d did not pause", in.ID)
		}
	}
	for _, parallel := range []int{2, 8, 1} {
		cfg := testConfig()
		cfg.Parallel = parallel
		insts, got, err := run(cfg)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if !reflect.DeepEqual(insts, wantInsts) {
			t.Errorf("parallel=%d: instance results diverged", parallel)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallel=%d: served outcome diverged:\n%+v\n%+v", parallel, got.Summary, want.Summary)
		}
	}
}

// TestFleetSeedsStagger checks instances actually run out of phase: the
// derived seeds differ and so do the pause timelines.
func TestFleetSeedsStagger(t *testing.T) {
	cfg := testConfig()
	cfg.Instances = 2
	insts, res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := insts[0], insts[1]
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
	}
	for _, tc := range cases {
		cfg := testConfig()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if _, err := RunInstances(cfg); err == nil {
			t.Errorf("%s: RunInstances accepted", tc.name)
		}
	}
	if _, err := Serve(nil, benchTraffic()); err == nil {
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
