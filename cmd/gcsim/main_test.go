package main

import (
	"errors"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"nvmgc/internal/heap"
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

// TestNegativeCadenceIsUsageError: a negative -mixed-every or -full-every
// exits 2 naming the flag, rather than running with the cadence off.
func TestNegativeCadenceIsUsageError(t *testing.T) {
	for _, args := range [][]string{{"-mixed-every", "-1"}, {"-full-every", "-3"}} {
		code, stderr := gcsim(t, append([]string{"-app", "page-rank", "-scale", "0.05"}, args...)...)
		if code != 2 || !strings.Contains(stderr, args[0]+" "+args[1]) || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: exit %d, stderr %q: want exit 2 with one line naming the flag", args, code, stderr)
		}
	}
}

// TestHugeScaleIsAnError: a -scale whose op or byte budget does not fit in
// an int64 exits 1 naming the scale, instead of an empty run that exits 0.
func TestHugeScaleIsAnError(t *testing.T) {
	for _, app := range []string{"page-rank", "ycsb-a"} {
		code, stderr := gcsim(t, "-app", app, "-scale", "1e19")
		if code != 1 || !strings.Contains(stderr, "scale 1e+19") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%s: exit %d, stderr %q: want exit 1 with one line naming the scale", app, code, stderr)
		}
	}
}

func TestParseConfig(t *testing.T) {
	for _, name := range []string{"vanilla", "writecache", "all", "async"} {
		if _, err := parseConfig(name); err != nil {
			t.Errorf("parseConfig(%q): %v", name, err)
		}
	}
	opt, err := parseConfig("async")
	if err != nil {
		t.Fatal(err)
	}
	if !opt.AsyncFlush {
		t.Errorf("async config did not enable AsyncFlush")
	}
	if _, err := parseConfig("turbo"); err == nil {
		t.Errorf("parseConfig accepted unknown config")
	} else if !strings.Contains(err.Error(), "turbo") {
		t.Errorf("error does not name the bad config: %v", err)
	}
}

func TestParseDevice(t *testing.T) {
	if p, err := parseDevice("nvm"); err != nil || p != (heap.PlacementPolicy{}) {
		t.Errorf("parseDevice(nvm) = %+v, %v", p, err)
	}
	if p, err := parseDevice("dram"); err != nil || p != heap.AllOn("dram") {
		t.Errorf("parseDevice(dram) = %+v, %v", p, err)
	}
	if _, err := parseDevice("optane"); err == nil {
		t.Errorf("parseDevice accepted unknown device")
	} else if !strings.Contains(err.Error(), "optane") {
		t.Errorf("error does not name the bad device: %v", err)
	}
}

func TestParseTopology(t *testing.T) {
	if tiers, err := parseTopology(""); err != nil || tiers != nil {
		t.Errorf("empty topology: %v, %v", tiers, err)
	}
	tiers, err := parseTopology("local-dram, remote-dram, pm=optane")
	if err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
	if len(tiers) != 3 {
		t.Fatalf("expected 3 tiers, got %d", len(tiers))
	}
	if tiers[2].Name != "pm" {
		t.Errorf("alias not applied: %q", tiers[2].Name)
	}
	_, err = parseTopology("local-dram,bogus-tier")
	if err == nil {
		t.Fatalf("unknown tier accepted")
	}
	if !strings.Contains(err.Error(), "bogus-tier") || !strings.Contains(err.Error(), "built-ins") {
		t.Errorf("error should name the tier and list built-ins: %v", err)
	}
	// The two lists memsim.NewMachine panics on.
	for in, want := range map[string]string{
		"optane,optane":              `duplicate tier name "optane"`,
		"nvm=optane,nvm=remote-dram": `duplicate tier name "nvm"`,
		"local-dram,=optane":         "empty tier name",
	} {
		if _, err := parseTopology(in); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("parseTopology(%q) = %v, want an error with %q", in, err, want)
		}
	}
}

func TestValidatePlacement(t *testing.T) {
	// Default topology: dram and nvm exist, anything else does not.
	mc := memsim.DefaultConfig()
	if err := validatePlacement(heap.PlacementPolicy{Eden: "dram", Meta: "nvm"}, mc); err != nil {
		t.Errorf("default-topology placement rejected: %v", err)
	}
	err := validatePlacement(heap.PlacementPolicy{Cache: "remote-dram"}, mc)
	if err == nil {
		t.Fatalf("placement on a tier missing from the default topology accepted")
	}
	if !strings.Contains(err.Error(), "-cache-tier") || !strings.Contains(err.Error(), "remote-dram") {
		t.Errorf("error should name the flag and the tier: %v", err)
	}
	// Explicit topology: the same tier name is now valid.
	if mc.Tiers, err = parseTopology("local-dram,remote-dram,nvm=optane"); err != nil {
		t.Fatal(err)
	}
	if err := validatePlacement(heap.PlacementPolicy{Cache: "remote-dram"}, mc); err != nil {
		t.Errorf("placement on an explicit-topology tier rejected: %v", err)
	}
	if err := validatePlacement(heap.PlacementPolicy{Eden: "dram"}, mc); err == nil {
		t.Errorf("-young-tier naming a tier absent from the explicit topology accepted")
	}
}

// TestCheckThreads: a -threads value past the scheduler's worker limit is a
// usage error (one line, exit 2), not a panic out of Machine.Run.
func TestCheckThreads(t *testing.T) {
	for _, n := range []int{1, 16, memsim.MaxWorkers} {
		if err := checkThreads(n); err != nil {
			t.Errorf("checkThreads(%d): %v", n, err)
		}
	}
	err := checkThreads(300)
	if err == nil {
		t.Fatal("checkThreads accepted 300 threads")
	}
	if !strings.Contains(err.Error(), "300") || !strings.Contains(err.Error(), "256") {
		t.Errorf("error should name the value and the limit: %v", err)
	}
	// Below 1 the runner would fall back to its default of 8 under a header
	// naming the value given.
	for _, n := range []int{0, -3} {
		if err := checkThreads(n); err == nil || !strings.Contains(err.Error(), strconv.Itoa(n)) {
			t.Errorf("checkThreads(%d) = %v, want an error naming the value", n, err)
		}
	}
}

// TestCheckScale: a -scale the runner would rewrite (negative runs at the
// default) or that collapses the op budget (NaN) is a usage error.
func TestCheckScale(t *testing.T) {
	for _, s := range []float64{0, 0.3, 1, 4} {
		if err := checkScale(s); err != nil {
			t.Errorf("checkScale(%g): %v", s, err)
		}
	}
	for _, tc := range []struct {
		s    float64
		want string
	}{
		{-1, "-scale -1"},
		{math.NaN(), "-scale NaN"},
		{math.Inf(1), "-scale +Inf"},
		{math.Inf(-1), "-scale -Inf"},
	} {
		if err := checkScale(tc.s); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("checkScale(%g) = %v, want an error containing %q", tc.s, err, tc.want)
		}
	}
}

// TestUnknownRequestDistIsAnError: a -ycsb-dist outside the six request
// distributions exits 1 naming them all, before any run; no flag reaches
// the scenario runner's unreachable-distribution panic.
func TestUnknownRequestDistIsAnError(t *testing.T) {
	code, stderr := gcsim(t, "-app", "ycsb-a", "-ycsb-dist", "bogus")
	if code != 1 || strings.Contains(stderr, "panic") || strings.Count(stderr, "\n") != 1 {
		t.Fatalf("exit %d, stderr %q: want exit 1 with one line", code, stderr)
	}
	for _, d := range workload.RequestDists() {
		if !strings.Contains(stderr, d) {
			t.Errorf("stderr %q does not name %q", stderr, d)
		}
	}
}

// TestThetaNeedsZipfian: -ycsb-theta under a distribution that has no
// skew parameter exits 1 naming the distribution, before any run, rather
// than rendering the run without the flag.
func TestThetaNeedsZipfian(t *testing.T) {
	for _, args := range [][]string{
		{"-app", "ycsb-a", "-ycsb-dist", "latest", "-ycsb-theta", "0.5"},
		{"-app", "ycsb-a-hotspot", "-ycsb-theta", "0.5"},
	} {
		code, stderr := gcsim(t, args...)
		if code != 1 || !strings.Contains(stderr, "-ycsb-theta") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: exit %d, stderr %q: want exit 1 with one line naming -ycsb-theta", args, code, stderr)
		}
		if dist := map[string]string{"ycsb-a": "latest", "ycsb-a-hotspot": "hotspot"}[args[1]]; !strings.Contains(stderr, dist) {
			t.Errorf("%v: stderr %q does not name the %s distribution", args, stderr, dist)
		}
	}
}

// TestSelfcheckRejectsOtherModesFlags: -selfcheck reads only -seed,
// -parallel and its own flags, so any other flag is a usage error naming
// it (exit 2), not a fixed campaign that silently ignores it.
func TestSelfcheckRejectsOtherModesFlags(t *testing.T) {
	selfcheck := []string{"-selfcheck", "-selfcheck-runs", "1", "-selfcheck-ops", "10"}
	code, stderr := gcsim(t, append(selfcheck, "-threads", "2", "-config", "all", "-topology", "local-dram,optane")...)
	if code != 2 || !strings.Contains(stderr, "-selfcheck does not read -config, -threads, -topology") {
		t.Errorf("exit %d, stderr %q: want exit 2 naming -config, -threads, -topology", code, stderr)
	}
	checkModeRejects(t, selfcheckMode, "-selfcheck", selfcheck)
	if code, stderr := gcsim(t, append(selfcheck, "-seed", "3", "-parallel", "1")...); code != 0 {
		t.Errorf("selfcheck-read flags: exit %d, stderr %q", code, stderr)
	}
}

// flagValues holds a value that parses for each non-boolean flag of
// flagModes (what it means does not matter: the mode check runs first).
var flagValues = map[string]string{"device": "dram", "young-tier": "dram", "cache-tier": "dram", "meta-tier": "nvm",
	"collector": "ps", "json": "-", "mixed-every": "2", "full-every": "2", "profile-file": "p.json", "app": "als",
	"ycsb-records": "64", "ycsb-ops": "64", "ycsb-dist": "uniform", "ycsb-theta": "0.5",
	"config": "all", "topology": "local-dram,optane", "threads": "2", "scale": "0.1",
	"cpuprofile": "c.pb", "memprofile": "m.pb",
	"selfcheck-runs": "1", "selfcheck-ops": "10"}

// checkModeRejects runs gcsim in a mode (its flags in base) once with each
// flag that mode does not read, and wants exit 2 with stderr naming it.
// The -selfcheck switch is left out: setting it changes the mode.
func checkModeRejects(t *testing.T, mode int, name string, base []string) {
	t.Helper()
	for flagName, modes := range flagModes {
		if modes&mode != 0 || flagName == "selfcheck" {
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
