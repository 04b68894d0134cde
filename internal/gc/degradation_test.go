package gc

import (
	"errors"
	"testing"

	"nvmgc/internal/check"
	"nvmgc/internal/memsim"
)

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
	const threads = 4
	opt := Optimized()
	opt.HeaderMapBytes = 1 << 10
	opt.HeaderMapMinThreads = 1
	opt.WriteCacheBytes = 32 << 10
	opt.Persist = PersistADR
	cc := crashConfig{name: "degraded+adr", opt: opt}
	start, pause := dryRunPause(t, cc, threads)
	var crashed, rolledBack int
	for _, frac := range []float64{0.20, 0.45, 0.70, 0.90} {
		h, m, g, pre := crashEnv(t, cc)
		m.InjectFault(memsim.FaultPlan{CrashAtTime: start + memsim.Time(frac*float64(pause)), TornLine: true})
		_, err := g.Collect(threads)
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("frac %v: %v", frac, err)
		}
		crashed++
		if _, err := m.MaterializeCrash(); err != nil {
			t.Fatal(err)
		}
		rep, err := g.Recover()
		if err != nil {
			t.Fatalf("frac %v: recover: %v", frac, err)
		}
		if err := check.VerifyRecovered(h, pre); err != nil {
			t.Fatalf("frac %v (outcome %v): %v", frac, rep.Outcome, err)
		}
		if rep.Outcome == RecoveryRolledBack {
			rolledBack++
		}
	}
	if crashed == 0 || rolledBack == 0 {
		t.Fatalf("degraded crash sweep did not bite: crashed=%d rolledBack=%d", crashed, rolledBack)
	}
}
