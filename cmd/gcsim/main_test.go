package main

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
	"nvmgc/internal/workload"
)

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
