package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"nvmgc/internal/gc"
	"nvmgc/internal/memsim"
	"nvmgc/internal/workload"
)

// TestMain lets a test run this binary as gcsim: with GCSIM_MAIN=1 in the
// environment it runs main on its arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("GCSIM_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// gcsim runs gcsim on args in a child process and returns its exit code
// and standard error.
func gcsim(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GCSIM_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("gcsim %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

func testFleetOptions() fleetOptions {
	host := workload.PaperHost()
	host.Opt = gc.Optimized()
	return fleetOptions{
		instances: 2, qps: 120_000,
		hedgeUS: 2000, retryUS: 2500, retries: 2,
		workload: "ycsb-a", parallel: 1,
		o: options{host: host, threads: 8, scale: 0.4, seed: 3},
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

// TestFleetRejectsHostFlags: -fleet reads neither the single-app host
// flags nor its workload and output flags, so setting one is a usage error
// naming it (exit 2), not a run that silently ignores it.
func TestFleetRejectsHostFlags(t *testing.T) {
	fleet := []string{"-fleet", "-fleet-instances", "1", "-scale", "0.05", "-threads", "2"}
	out := filepath.Join(t.TempDir(), "x.json")
	code, stderr := gcsim(t, append(fleet, "-device", "dram", "-young-tier", "bogus", "-collector", "ps", "-json", out)...)
	if code != 2 || !strings.Contains(stderr, "-collector, -device, -json, -young-tier") {
		t.Errorf("exit %d, stderr %q: want exit 2 naming -collector, -device, -json, -young-tier", code, stderr)
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("-json file: %v, want none written", err)
	}
	checkModeRejects(t, fleetMode, "-fleet", fleet)
	// The flags -fleet does read pass the check.
	code, stderr = gcsim(t, append(fleet, "-config", "all", "-topology", "local-dram,nvm=optane", "-fault-ppm", "10",
		"-eager-yield", "-parallel", "1", "-seed", "3", "-fleet-qps", "1e-300")...)
	if code != 0 {
		t.Errorf("fleet-read flags: exit %d, stderr %q", code, stderr)
	}
}

// flagValues holds a value that parses for each non-boolean flag of
// flagModes (what it means does not matter: the mode check runs first).
var flagValues = map[string]string{"device": "dram", "young-tier": "dram", "cache-tier": "dram", "meta-tier": "nvm",
	"collector": "ps", "json": "-", "mixed-every": "2", "full-every": "2", "profile-file": "p.json", "app": "als",
	"ycsb-records": "64", "ycsb-ops": "64", "ycsb-dist": "uniform", "ycsb-theta": "0.5",
	"config": "all", "topology": "local-dram,optane", "threads": "2", "scale": "0.1", "fault-wear": "64",
	"fault-ppm": "10", "cpuprofile": "c.pb", "memprofile": "m.pb", "fleet-instances": "2", "fleet-qps": "1000",
	"fleet-hedge": "0", "fleet-retry": "0", "fleet-retries": "0", "fleet-workload": "ycsb-a",
	"selfcheck-runs": "1", "selfcheck-ops": "10"}

// checkModeRejects runs gcsim in a mode (its flags in base) once with each
// flag that mode does not read, and wants exit 2 with stderr naming it.
// The other modes' switches are left out: setting one changes the mode.
func checkModeRejects(t *testing.T, mode int, name string, base []string) {
	t.Helper()
	for flagName, modes := range flagModes {
		if modes&mode != 0 || flagName == "fleet" || flagName == "selfcheck" {
			continue
		}
		arg := "-" + flagName
		if v, ok := flagValues[flagName]; ok {
			arg += "=" + v
		}
		if code, stderr := gcsim(t, append(base, arg)...); code != 2 || !strings.Contains(stderr, name+" does not read -"+flagName+" (") {
			t.Errorf("%s %s: exit %d, stderr %q", name, arg, code, stderr)
		}
	}
}

// TestFaultFlagsNeedPersistentTier: fault flags on a topology with no
// persistent tier are a usage error naming both (exit 2), on the
// single-app path and under -fleet, not a run that reports zero faults.
func TestFaultFlagsNeedPersistentTier(t *testing.T) {
	volatile := []string{"-topology", "local-dram,remote-dram", "-fault-wear", "64", "-fault-ppm", "5000", "-scale", "0.05"}
	for _, args := range [][]string{
		append([]string{"-app", "page-rank"}, volatile...),
		append([]string{"-fleet", "-fleet-instances", "1"}, volatile...),
	} {
		code, stderr := gcsim(t, args...)
		if code != 2 || !strings.Contains(stderr, "-fault-wear/-fault-ppm") || !strings.Contains(stderr, `"local-dram,remote-dram"`) {
			t.Errorf("%v: exit %d, stderr %q: want exit 2 naming the flags and the topology", args, code, stderr)
		}
	}
}

// FuzzParseTopology: every tier list -topology accepts builds a machine
// (NewMachine panics on the lists it rejects); the empty flag's nil list
// keeps the default pair.
func FuzzParseTopology(f *testing.F) {
	for _, s := range []string{"", "local-dram,remote-dram,nvm=optane", "optane,optane", "local-dram,=optane",
		"nvm=optane,nvm=remote-dram", "a=b=optane", " eadr-nvm , dram=local-dram", ","} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tiers, err := parseTopology(s)
		if err != nil {
			return
		}
		mc := memsim.DefaultConfig()
		mc.TraceBucket = 0
		if tiers != nil {
			mc.Tiers = tiers
		} else if s != "" {
			t.Fatalf("%q: accepted as the default topology", s)
		}
		m := memsim.NewMachine(mc)
		if got := len(m.Topology().Tiers()); got != len(mc.Tiers) {
			t.Fatalf("%q: machine has %d tiers, want %d", s, got, len(mc.Tiers))
		}
	})
}
