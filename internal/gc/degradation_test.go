package gc

import "testing"

// TestCombinedDegradationStaysCorrect drives both capacity fallbacks at
// once — a header map too small for the live set and a write-cache budget
// too small for the survivors — and checks that the collection degrades
// gracefully: both fallback counters fire, the graph is preserved, the
// heap passes its invariants, and every cache region is returned.
func TestCombinedDegradationStaysCorrect(t *testing.T) {
	h, m := testEnv(t)
	spec := defaultSpec()
	spec.rootProb = 0.4 // high survival: stresses both budgets
	populate(t, h, m, spec)
	opt := Optimized()
	opt.HeaderMapBytes = 1 << 10 // 64 entries
	opt.HeaderMapMinThreads = 1
	opt.WriteCacheBytes = 32 << 10 // 2 regions
	g, err := NewG1(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	before := liveGraph(t, h)
	s, err := g.Collect(4)
	if err != nil {
		t.Fatal(err)
	}
	if s.HeaderMapFallbacks == 0 {
		t.Fatal("64-entry header map should overflow into NVM headers")
	}
	if s.CacheFallbackBytes == 0 {
		t.Fatal("2-region write cache should overflow into direct NVM copies")
	}
	if err := graphDiff(t, h, before); err != nil {
		t.Fatalf("degraded collection changed the graph: %v", err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if h.FreeCacheRegions() != h.Config().CacheRegions {
		t.Fatal("cache regions leaked under degradation")
	}
}

// TestDegradedConfigSurvivesCrash crashes a collection that is running
// with both capacity fallbacks active and persistence barriers on: the
// NVM-header fallback path must journal its forwarding installs just like
// the regular path, so recovery still restores the pre-GC graph.
func TestDegradedConfigSurvivesCrash(t *testing.T) {
	opt := Optimized()
	opt.HeaderMapBytes = 1 << 10
	opt.HeaderMapMinThreads = 1
	opt.WriteCacheBytes = 32 << 10
	opt.Persist = PersistADR
	fracs := []float64{0.20, 0.45, 0.70, 0.90}
	rolledBack := false
	for i, run := range crashAtFracs(t, crashConfig{"degraded+adr", opt, nil}, fracs...) {
		if run.Err != nil {
			t.Fatalf("frac %v (crashed %v, outcome %v): %v", fracs[i], run.Crashed, run.Recovery.Outcome, run.Err)
		}
		rolledBack = rolledBack || run.Recovery.Outcome == RecoveryRolledBack
	}
	if !rolledBack {
		t.Fatal("degraded crash sweep did not bite: no crash point rolled back")
	}
}
