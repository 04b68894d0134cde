package workload

import (
	"testing"

	"nvmgc/internal/gc"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

// newEnvMode is newEnv with an explicit scheduler mode, for the
// equivalence tests that must hold in both.
func newEnvMode(t *testing.T, heapTier string, eager bool) *heap.Heap {
	t.Helper()
	s := KeyedHost()
	s.Machine.EagerYield = eager
	if heapTier == "dram" {
		s.Heap.Placement = heap.AllOn("dram")
	}
	h, err := heap.New(memsim.NewMachine(s.Machine), s.Heap)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// sameResult compares every virtual-time observable of two runs.
func sameResult(t *testing.T, label string, a, b Result, mA, mB memsim.Time) {
	t.Helper()
	if a.Total != b.Total || a.GC != b.GC || a.App != b.App || a.Setup != b.Setup {
		t.Fatalf("%s: timing diverged: %+v vs %+v", label, a, b)
	}
	if a.Allocated != b.Allocated || a.Ops != b.Ops {
		t.Fatalf("%s: work diverged: alloc %d/%d ops %d/%d", label, a.Allocated, b.Allocated, a.Ops, b.Ops)
	}
	if len(a.Collections) != len(b.Collections) {
		t.Fatalf("%s: GC counts diverged: %d vs %d", label, len(a.Collections), len(b.Collections))
	}
	for i := range a.Collections {
		if a.Collections[i].BytesCopied != b.Collections[i].BytesCopied ||
			a.Collections[i].Pause != b.Collections[i].Pause {
			t.Fatalf("%s: gc %d diverged: %+v vs %+v", label, i, a.Collections[i], b.Collections[i])
		}
	}
	if mA != mB {
		t.Fatalf("%s: machine clocks diverged: %d vs %d", label, mA, mB)
	}
}

func runScenario(t *testing.T, name string, eager bool, opt gc.Options, scale float64) (Result, memsim.Time) {
	t.Helper()
	h := newEnvMode(t, "nvm", eager)
	col, err := gc.NewG1(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := scenario(t, name).NewRunner(col, Config{GCThreads: 8, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("%s: heap corrupt after run: %v", name, err)
	}
	return res, h.Machine().Now()
}

// TestKeyedRunnerDeterministicAcrossSchedulerModes: the keyed op stream
// and everything it charges are identical under eager-yield and
// event-horizon scheduling (the satellite "same seed ⇒ identical op
// streams" guarantee; -parallel independence follows because every
// bench point builds its own Machine).
func TestKeyedRunnerDeterministicAcrossSchedulerModes(t *testing.T) {
	for _, name := range []string{"ycsb-a", "ycsb-d", "ycsb-e"} {
		a, mA := runScenario(t, name, false, gc.Optimized(), 0.25)
		b, mB := runScenario(t, name, true, gc.Optimized(), 0.25)
		sameResult(t, name, a, b, mA, mB)
		rerun, mR := runScenario(t, name, false, gc.Optimized(), 0.25)
		sameResult(t, name+"/rerun", a, rerun, mA, mR)
	}
}

// TestKeyedOpStreamIndependentOfGCConfig: collector options must not
// leak into the op stream — same ops, same allocation volume, same
// per-collection live sets under vanilla and fully-optimized GC.
func TestKeyedOpStreamIndependentOfGCConfig(t *testing.T) {
	a, _ := runScenario(t, "ycsb-a", false, gc.Vanilla(), 0.5)
	b, _ := runScenario(t, "ycsb-a", false, gc.Optimized(), 0.5)
	if a.Ops != b.Ops || a.Allocated != b.Allocated {
		t.Fatalf("op streams diverged across GC configs: ops %d/%d alloc %d/%d",
			a.Ops, b.Ops, a.Allocated, b.Allocated)
	}
	if len(a.Collections) != len(b.Collections) {
		t.Fatalf("GC counts diverged: %d vs %d", len(a.Collections), len(b.Collections))
	}
	for i := range a.Collections {
		if a.Collections[i].BytesCopied != b.Collections[i].BytesCopied {
			t.Fatalf("gc %d: live sets diverged: %d vs %d",
				i, a.Collections[i].BytesCopied, b.Collections[i].BytesCopied)
		}
	}
}

// TestKeyedRunnerExecutesFullBudget: every YCSB mix runs its scaled op
// budget to completion, allocates, and (for the update-bearing mixes)
// forces collections on this eden.
func TestKeyedRunnerExecutesFullBudget(t *testing.T) {
	for _, tc := range []struct {
		name     string
		scale    float64
		wantsGCs bool
	}{
		{"ycsb-a", 0.5, true},         // update-heavy: cycles eden
		{"ycsb-c", 0.5, false},        // read-only: allocates nothing after load
		{"ycsb-f", 0.5, true},         // RMW-heavy
		{"ycsb-a-hotspot", 0.5, true}, // hotspot skew variant
		{"ycsb-d", 0.1, false},        // latest + inserts past the window (FIFO eviction)
		{"ycsb-e", 0.1, false},        // scans + inserts
	} {
		res, _ := runScenario(t, tc.name, false, gc.Optimized(), tc.scale)
		spec, _ := ScenarioByName(tc.name)
		want := int64(float64(spec.Core.Ops) * tc.scale)
		if res.Ops != want {
			t.Fatalf("%s: completed %d ops, budget %d", tc.name, res.Ops, want)
		}
		if tc.wantsGCs && len(res.Collections) == 0 {
			t.Fatalf("%s: expected collections on the 3 MiB eden, got none", tc.name)
		}
		if !tc.wantsGCs && tc.name == "ycsb-c" && res.Allocated != 0 {
			t.Fatalf("read-only mix allocated %d bytes after load", res.Allocated)
		}
		if res.Total != res.App+res.GC {
			t.Fatalf("%s: time accounting broken: %+v", tc.name, res)
		}
	}
}

// TestScenarioRunsDoNotShareState: Spec.NewRunner copies the registered
// Core, so back-to-back runs from one Spec start from identical
// generator state.
func TestScenarioRunsDoNotShareState(t *testing.T) {
	a, mA := runScenario(t, "ycsb-b-hotspot", false, gc.Optimized(), 0.1)
	b, mB := runScenario(t, "ycsb-b-hotspot", false, gc.Optimized(), 0.1)
	sameResult(t, "ycsb-b-hotspot", a, b, mA, mB)
}

func TestScenarioRegistryContents(t *testing.T) {
	all := Scenarios()
	fam := map[string]int{}
	for i, s := range all {
		fam[s.Family]++
		if i > 0 {
			prev := all[i-1]
			if prev.Family > s.Family || (prev.Family == s.Family && prev.Name >= s.Name) {
				t.Fatalf("registry order broken: %s/%s before %s/%s", prev.Family, prev.Name, s.Family, s.Name)
			}
		}
	}
	if fam["legacy"] != 26 {
		t.Fatalf("legacy scenarios = %d, want the paper's 26 profiles", fam["legacy"])
	}
	if fam["cassandra"] != 2 {
		t.Fatalf("cassandra scenarios = %d, want 2", fam["cassandra"])
	}
	if fam["ycsb"] != 8 {
		t.Fatalf("ycsb scenarios = %d, want 8 (A–F + two hotspot variants)", fam["ycsb"])
	}
	for _, name := range []string{"ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f"} {
		s, err := ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Core == nil {
			t.Fatalf("%s has no core", name)
		}
		if err := s.Core.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := ScenarioByName("ycsb-z"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestRegisterRejectsBadSpecs: duplicates and mis-backed specs must die
// at registration, not at run time. All cases fail, so the global
// registry is unchanged.
func TestRegisterRejectsBadSpecs(t *testing.T) {
	p := scenario(t, "als").Profile
	c := CoreDefaults()
	if err := Register(Spec{Name: "ycsb-a", Family: "test", Core: &c}); err == nil {
		t.Fatal("duplicate scenario name accepted")
	}
	if err := Register(Spec{Name: "", Family: "test", Core: &c}); err == nil {
		t.Fatal("empty scenario name accepted")
	}
	if err := Register(Spec{Name: "test-none", Family: "test"}); err == nil {
		t.Fatal("spec with no backing accepted")
	}
	if err := Register(Spec{Name: "test-both", Family: "test", Profile: p, Core: &c}); err == nil {
		t.Fatal("spec with two backings accepted")
	}
	if _, err := (Spec{Name: "empty"}).NewRunner(nil, Config{}); err == nil {
		t.Fatal("unbacked spec built a runner")
	}
}

func TestCoreValidateRejectsBadConfigs(t *testing.T) {
	good := CoreDefaults()
	if err := good.Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	for _, tc := range []struct {
		label string
		mut   func(*Core)
	}{
		{"mix sums past 1", func(c *Core) { c.UpdateProp = 0.5 }},
		{"negative proportion", func(c *Core) { c.ReadProp, c.UpdateProp = -0.5, 1.5 }},
		{"unknown dist", func(c *Core) { c.Request = "pareto" }},
		{"theta out of range", func(c *Core) { c.Theta = 1.5 }},
		{"zero records", func(c *Core) { c.Records = 0 }},
		{"capacity below records", func(c *Core) { c.Capacity = c.Records - 1 }},
		{"zero ops", func(c *Core) { c.Ops = 0 }},
		{"row size too small", func(c *Core) { c.MinWords = 2 }},
		{"inverted row sizes", func(c *Core) { c.MinWords, c.MaxWords = 64, 32 }},
		{"scan without length", func(c *Core) { c.ReadProp, c.ScanProp, c.MaxScanLen = 0, 1, 0 }},
		{"size histogram mismatch", func(c *Core) { c.SizeValues = []int64{8} }},
	} {
		c := CoreDefaults()
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("%s: not rejected", tc.label)
		}
	}
}

// TestHotspotSkewConcentratesGarbage: with the same op budget, the
// hotspot-skewed update mix touches far fewer distinct keys than plain
// zipfian would cover, but must still drive the same allocation volume —
// the skew shows up in where barriers and garbage land, not in how much
// work the mutator does.
func TestHotspotSkewConcentratesGarbage(t *testing.T) {
	zipf, _ := runScenario(t, "ycsb-a", false, gc.Vanilla(), 0.25)
	hot, _ := runScenario(t, "ycsb-a-hotspot", false, gc.Vanilla(), 0.25)
	if zipf.Ops != hot.Ops {
		t.Fatalf("budgets diverged: %d vs %d", zipf.Ops, hot.Ops)
	}
	if zipf.Allocated == 0 || hot.Allocated == 0 {
		t.Fatal("update mixes must allocate")
	}
	// Same mix proportions and size distribution ⇒ allocation volumes in
	// the same ballpark (the key *choice* differs, sizes are per-key).
	r := float64(zipf.Allocated) / float64(hot.Allocated)
	if r < 0.8 || r > 1.25 {
		t.Fatalf("allocation volumes diverged beyond size noise: %.3f", r)
	}
}
