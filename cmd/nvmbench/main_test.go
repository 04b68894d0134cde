package main

import (
	"math"
	"strings"
	"testing"

	"nvmgc/internal/bench"
)

func TestResolveRunIDsAll(t *testing.T) {
	ids, err := resolveRunIDs("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(bench.All()) {
		t.Fatalf("'all' resolved to %d ids, registry has %d", len(ids), len(bench.All()))
	}
}

func TestResolveRunIDsList(t *testing.T) {
	ids, err := resolveRunIDs("fig5, fig1,tab-prefetch")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fig5", "fig1", "tab-prefetch"}
	if len(ids) != len(want) {
		t.Fatalf("got %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("got %v, want %v", ids, want)
		}
	}
}

// TestResolveRunIDsUnknown: an id outside bench.All is an error naming it,
// including "fleet", which bench.ByID still resolves for the repository
// benchmark's suite sample.
func TestResolveRunIDsUnknown(t *testing.T) {
	for _, run := range []string{"fig5,fig99", "fleet"} {
		_, err := resolveRunIDs(run)
		if err == nil {
			t.Fatalf("%q: unknown experiment id accepted", run)
		}
		if bad := run[strings.LastIndex(run, ",")+1:]; !strings.Contains(err.Error(), bad) || !strings.Contains(err.Error(), "-list") {
			t.Errorf("error should name %q and point at -list: %v", bad, err)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	if err := (bench.Params{Scale: 0.5}).Validate(); err != nil {
		t.Errorf("default params rejected: %v", err)
	}
	if err := (bench.Params{Parallel: -1}).Validate(); err == nil {
		t.Errorf("negative parallel accepted")
	}
	for _, s := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := (bench.Params{Scale: s}).Validate(); err == nil {
			t.Errorf("scale %g accepted", s)
		}
	}
	if err := (bench.Params{}).Validate(); err != nil {
		t.Errorf("scale 0 (the default) rejected: %v", err)
	}
	if err := (bench.Params{NVMTier: "eadr-nvm"}).Validate(); err != nil {
		t.Errorf("built-in NVM tier rejected: %v", err)
	}
	err := (bench.Params{NVMTier: "no-such-tier"}).Validate()
	if err == nil {
		t.Fatalf("unknown NVM tier accepted")
	}
	if !strings.Contains(err.Error(), "no-such-tier") {
		t.Errorf("error should name the tier: %v", err)
	}
}

// TestCheckFlags: a flag value the run would silently rewrite is a usage
// error naming the flag and the value, before any output file exists.
func TestCheckFlags(t *testing.T) {
	ok := bench.Params{Scale: 0.2}
	for _, f := range []string{"table", "csv"} {
		if err := checkFlags(ok, f); err != nil {
			t.Errorf("-format %s: %v", f, err)
		}
	}
	for _, tc := range []struct {
		name   string
		p      bench.Params
		format string
		want   string
	}{
		{"unknown format", ok, "xml", `-format "xml"`},
		{"retired json format", ok, "json", `-format "json"`},
		{"negative scale", bench.Params{Scale: -1}, "table", "scale -1"},
		{"NaN scale", bench.Params{Scale: math.NaN()}, "table", "scale NaN"},
		{"infinite scale", bench.Params{Scale: math.Inf(1)}, "table", "scale +Inf"},
		{"too many threads", bench.Params{Threads: 300}, "table", "-threads 300"},
		{"negative threads", bench.Params{Threads: -1}, "table", "-threads -1"},
		{"unknown NVM tier", bench.Params{NVMTier: "nope"}, "table", `"nope"`},
	} {
		if err := checkFlags(tc.p, tc.format); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
