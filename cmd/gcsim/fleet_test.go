package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"nvmgc/internal/gc"
	"nvmgc/internal/memsim"
)

func testFleetOptions() fleetOptions {
	return fleetOptions{
		instances: 2, qps: 120_000,
		hedgeUS: 2000, retryUS: 2500, retries: 2,
		workload: "ycsb-a", parallel: 1,
		o: options{opt: gc.Optimized(), threads: 8, scale: 0.4, seed: 3},
	}
}

// TestFleetConfigProjection pins the flag -> fleet.Config mapping,
// including the microsecond flag units.
func TestFleetConfigProjection(t *testing.T) {
	fo := testFleetOptions()
	cfg := fo.fleetConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("projected config invalid: %v", err)
	}
	if cfg.Instances != 2 || cfg.QPS != 120_000 || cfg.Scenario != "ycsb-a" {
		t.Fatalf("projection lost fleet flags: %+v", cfg)
	}
	if cfg.HedgeAfter != 2*memsim.Millisecond {
		t.Fatalf("-fleet-hedge 2000us projected to %d", cfg.HedgeAfter)
	}
	if cfg.RetryAfter != 2500*memsim.Microsecond || cfg.MaxRetries != 2 {
		t.Fatalf("retry flags projected to %d/%d", cfg.RetryAfter, cfg.MaxRetries)
	}
	if cfg.GCThreads != 8 || cfg.Scale != 0.4 || cfg.Seed != 3 || cfg.Parallel != 1 {
		t.Fatalf("shared run flags lost: %+v", cfg)
	}
	if !cfg.Opt.WriteCache {
		t.Fatalf("-config all lost: %+v", cfg.Opt)
	}
}

// TestFleetConfigValidateRejects is the up-front flag validation: each
// bad flag dies before any instance machine is built.
func TestFleetConfigValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*fleetOptions)
	}{
		{"zero instances", func(fo *fleetOptions) { fo.instances = 0 }},
		{"negative qps", func(fo *fleetOptions) { fo.qps = -1 }},
		{"NaN qps", func(fo *fleetOptions) { fo.qps = math.NaN() }},
		{"infinite qps", func(fo *fleetOptions) { fo.qps = math.Inf(1) }},
		{"qps above 1e9", func(fo *fleetOptions) { fo.qps = 1e300 }},
		{"unknown workload", func(fo *fleetOptions) { fo.workload = "no-such" }},
		{"negative hedge", func(fo *fleetOptions) { fo.hedgeUS = -1 }},
		{"negative retry budget", func(fo *fleetOptions) { fo.retries = -1 }},
		{"negative parallel", func(fo *fleetOptions) { fo.parallel = -1 }},
		{"NaN scale", func(fo *fleetOptions) { fo.o.scale = math.NaN() }},
	}
	for _, tc := range cases {
		fo := testFleetOptions()
		tc.mut(&fo)
		if err := fo.fleetConfig().Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestFaultTiers pins the shared fault-topology helper: no fault flags
// pass the topology through untouched, fault flags install the model on
// persistent tiers only — on a copy, never the caller's slice.
func TestFaultTiers(t *testing.T) {
	if got := faultTiers(nil, 0, 0, 1); got != nil {
		t.Fatalf("no faults on nil topology should stay nil, got %v", got)
	}
	got := faultTiers(nil, 4096, 100, 7)
	if len(got) == 0 {
		t.Fatal("fault flags on nil topology should build the default pair")
	}
	for _, ts := range got {
		if ts.Persistent && ts.Fault.WearThresholdMean != 4096 {
			t.Fatalf("persistent tier missed the wear model: %+v", ts)
		}
		if !ts.Persistent && ts.Fault.WearThresholdMean != 0 {
			t.Fatalf("volatile tier got a fault model: %+v", ts)
		}
	}
	cfg := memsim.DefaultConfig()
	orig := memsim.DefaultTierSpecs(cfg.DRAM, cfg.NVM)
	out := faultTiers(orig, 4096, 100, 7)
	for _, ts := range orig {
		if ts.Fault.WearThresholdMean != 0 || ts.Fault.TransientReadPPM != 0 {
			t.Fatal("faultTiers mutated the caller's topology")
		}
	}
	found := false
	for _, ts := range out {
		if ts.Persistent && ts.Fault.TransientReadPPM == 100 && ts.Fault.Seed == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("returned topology misses the seeded model: %+v", out)
	}
}

// TestRunFleetSmoke drives the whole -fleet path into a buffer.
func TestRunFleetSmoke(t *testing.T) {
	var b bytes.Buffer
	if err := runFleet(&b, testFleetOptions()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"fleet: 2 x ycsb-a instances", "p999", "requests:", "ops"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output misses %q:\n%s", want, out)
		}
	}
}
