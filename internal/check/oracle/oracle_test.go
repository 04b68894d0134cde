package oracle

import (
	"strings"
	"testing"

	"nvmgc/internal/gc"
)

// TestGenerateDeterministic: the trace generator is a pure function of
// its seed.
func TestGenerateDeterministic(t *testing.T) {
	a := GenerateDist(42, 300, "uniform")
	b := GenerateDist(42, 300, "uniform")
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := GenerateDist(43, 300, "uniform")
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("seeds 42 and 43 generated identical traces")
	}
}

// TestReferenceSelfConsistent: the reference collector replayed twice on
// the same trace produces identical snapshots, and both topologies agree.
func TestReferenceSelfConsistent(t *testing.T) {
	ops := GenerateDist(7, 300, "uniform")
	r1, err := RunTrace(refConfig("2tier"), ops)
	if err != nil {
		t.Fatalf("reference replay: %v", err)
	}
	r2, err := RunTrace(refConfig("2tier"), ops)
	if err != nil {
		t.Fatalf("reference replay (repeat): %v", err)
	}
	if err := diffResults(r2, r1); err != nil {
		t.Fatalf("reference not deterministic: %v", err)
	}
	r3, err := RunTrace(refConfig("3tier"), ops)
	if err != nil {
		t.Fatalf("3-tier reference replay: %v", err)
	}
	if err := diffResults(r3, r1); err != nil {
		t.Fatalf("topologies disagree: %v", err)
	}
}

// TestRunSeedMatrix drives a handful of seeds through the full
// differential matrix. This is the in-tree slice of the selfcheck
// campaign; `gcsim -selfcheck` runs the long version.
func TestRunSeedMatrix(t *testing.T) {
	runs := 6
	nops := 250
	if testing.Short() {
		runs = 2
	}
	for i := 0; i < runs; i++ {
		seed := uint64(1 + i)
		if f := RunSeedDist(seed, nops, "uniform"); f != nil {
			t.Fatalf("differential failure:\n%s", f)
		}
	}
}

// TestPersistReplayStatsSane: a persist-enabled collector's pause has a
// fourth sub-phase, the persist barrier, which the stats check must count.
func TestPersistReplayStatsSane(t *testing.T) {
	opt := gc.Vanilla()
	opt.Persist, opt.Check = gc.PersistADR, true
	if _, err := RunTrace(Config{Name: "g1-vanilla+adr/2tier", Collector: "g1", Opt: opt, Topology: "2tier"}, GenerateDist(7, 400, "uniform")); err != nil {
		t.Fatal(err)
	}
}

// TestCampaignDeterministic: two campaigns from the same base seed
// render byte-identical reports.
func TestCampaignDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign repeat is slow")
	}
	r1, err := Campaign(3, 200, 99, 2)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	r2, err := Campaign(3, 200, 99, 4)
	if err != nil {
		t.Fatalf("campaign (repeat): %v", err)
	}
	if r1.String() != r2.String() {
		t.Fatalf("campaign not deterministic:\n--- first\n%s\n--- second\n%s", r1, r2)
	}
	if !r1.Passed() {
		t.Fatalf("campaign failed:\n%s", r1)
	}
	if !strings.Contains(r1.String(), "PASS") {
		t.Fatalf("report missing PASS marker:\n%s", r1)
	}
}

// TestCampaignRejectsNegativeCounts: -selfcheck-runs / -selfcheck-ops are
// user input; a negative one is an error, not a makeslice panic.
func TestCampaignRejectsNegativeCounts(t *testing.T) {
	for _, c := range [][2]int{{-1, 400}, {50, -1}} {
		if rep, err := Campaign(c[0], c[1], 1, 1); err == nil || rep != nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("Campaign(%d, %d) = %v, %v; want an error saying why", c[0], c[1], rep, err)
		}
	}
	if _, err := Campaign(0, 0, 1, 1); err != nil {
		t.Errorf("empty campaign rejected: %v", err)
	}
}

// TestShrinkMinimizes: chunk-removal shrinking finds the minimal
// sub-trace for a synthetic predicate ("contains ops 3 and 17").
func TestShrinkMinimizes(t *testing.T) {
	ops := GenerateDist(5, 60, "uniform")
	need1, need2 := ops[3], ops[17]
	fails := func(sub []Op) bool {
		have1, have2 := false, false
		for _, o := range sub {
			if o == need1 {
				have1 = true
			}
			if o == need2 {
				have2 = true
			}
		}
		return have1 && have2
	}
	got := Shrink(ops, fails, 500)
	if !fails(got) {
		t.Fatalf("shrunk trace no longer fails")
	}
	// need1 and need2 may each appear more than once in the trace; the
	// minimum is two ops unless they collide.
	if len(got) > 4 {
		t.Fatalf("shrink left %d ops, expected <= 4:\n%s", len(got), FormatTrace(got))
	}
}

// TestFailureReportsTrace: a Failure renders the seed, configuration,
// error, and the shrunk trace.
func TestFailureReportsTrace(t *testing.T) {
	f := &Failure{
		Seed:   9,
		Config: "g1-vanilla/2tier",
		Err:    "snapshot 1 of 2: object 3: ref slot 0 differs",
		Trace:  []Op{{Kind: OpAllocNode, A: 0}, {Kind: OpRootAdd, A: 0}, {Kind: OpGC, A: 0}},
	}
	s := f.String()
	for _, want := range []string{"seed 9", "g1-vanilla/2tier", "ref slot 0 differs", "alloc #0", "gc(young)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("failure report missing %q:\n%s", want, s)
		}
	}
}
