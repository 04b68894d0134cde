package gc

import (
	"errors"
	"strings"
	"testing"

	"nvmgc/internal/check"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

// crashConfig is one collector option set exercised by the crash tests;
// a PersistEADR set runs on the eADR Optane tier. shape, when set, edits
// the machine and heap configurations before they are built: a smaller
// LLC sends more of a collection's stores to the media before a crash, a
// small metadata area overflows the journal, and the fuzzer moves the
// journal to other tiers.
type crashConfig struct {
	name  string
	opt   Options
	shape func(*memsim.Config, *heap.Config)
}

func crashConfigs() []crashConfig {
	adr := func(o Options) Options { o.Persist = PersistADR; return o }
	all := Optimized()
	all.HeaderMapMinThreads = 1
	allE := all
	allE.Persist = PersistEADR
	return []crashConfig{
		{"vanilla+adr", adr(Vanilla()), nil},
		{"writecache+adr", adr(WithWriteCache()), nil},
		{"all+adr", adr(all), nil},
		{"all+eadr", allE, nil},
	}
}

// crashEnv builds a persistence-tracked machine/heap/collector triple with
// a populated graph, declares the mutator state durable (the campaign
// contract: application data was persisted before GC entry), and captures
// the pre-GC live graph.
func crashEnv(t *testing.T, cc crashConfig) (*heap.Heap, *memsim.Machine, *G1, *check.Snapshot) {
	t.Helper()
	cfg := memsim.DefaultConfig()
	cfg.LLCBytes = 1 << 17
	hc := heap.DefaultConfig()
	hc.RegionBytes = 16 << 10
	hc.HeapRegions = 256
	hc.CacheRegions = 64
	hc.EdenRegions = 48
	hc.SurvivorRegions = 32
	hc.AuxBytes = 2 << 20
	hc.MetaBytes = 1 << 20
	hc.RootSlots = 1 << 12
	hc.Poison = true
	if cc.opt.Persist == PersistEADR {
		cfg.Tiers[1] = memsim.MustBuiltinTier("eadr-nvm")
	}
	if cc.shape != nil {
		cc.shape(&cfg, &hc)
	}
	m := memsim.NewMachine(cfg)
	m.EnablePersist(m.NVM, m.TierOf(m.NVM).EADR())
	h, err := heap.New(m, hc)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, h, m, defaultSpec())
	g, err := NewG1(h, cc.opt)
	if err != nil {
		t.Fatal(err)
	}
	m.Persist().PersistAll()
	return h, m, g, liveGraph(t, h)
}

// dryRun measures one uninterrupted 4-thread collection on a twin
// environment, so crash points can be planted at known offsets into its
// pause.
func dryRun(t *testing.T, cc crashConfig) (memsim.Time, CollectionStats) {
	t.Helper()
	_, m, g, _ := crashEnv(t, cc)
	start := m.Now()
	s, err := g.Collect(4)
	if err != nil {
		t.Fatalf("%s: dry run: %v", cc.name, err)
	}
	return start, s
}

// collectThroughCrash runs one 4-thread g.CollectThroughCrash and fails
// the test on any error other than the crash itself.
func collectThroughCrash(t *testing.T, g *G1, plan memsim.FaultPlan, pre *check.Snapshot) CrashRun {
	t.Helper()
	run, err := g.CollectThroughCrash(4, plan, pre)
	if err != nil {
		t.Fatalf("plan %+v: %v", plan, err)
	}
	return run
}

// crashAtFracs runs one crash-restart cycle, torn line included, at each
// fraction of cc's uninterrupted pause, each on a fresh environment.
func crashAtFracs(t *testing.T, cc crashConfig, fracs ...float64) []CrashRun {
	t.Helper()
	start, s := dryRun(t, cc)
	runs := make([]CrashRun, len(fracs))
	for i, frac := range fracs {
		_, _, g, pre := crashEnv(t, cc)
		runs[i] = collectThroughCrash(t, g, memsim.FaultPlan{CrashAtTime: start + memsim.Time(frac*float64(s.Pause)), TornLine: true}, pre)
	}
	return runs
}

// TestCollectThroughCrashContract pins the routine's non-crash verdicts:
// a plan that never fires leaves an uncrashed run that is still checked
// against pre, and a collection that cannot start is a returned error,
// not a failed recovery.
func TestCollectThroughCrashContract(t *testing.T) {
	_, _, g, pre := crashEnv(t, crashConfigs()[0])
	unfired := memsim.FaultPlan{CrashAtStore: 1 << 40}
	if run := collectThroughCrash(t, g, unfired, pre); run.Crashed || run.Err != nil {
		t.Fatalf("unfired plan: crashed %v, err %v", run.Crashed, run.Err)
	}
	if run := collectThroughCrash(t, g, unfired, &check.Snapshot{}); run.Err == nil {
		t.Fatal("an uncrashed collection was not checked against a graph it does not hold")
	}
	if run, err := g.CollectThroughCrash(0, unfired, pre); err == nil || run.Crashed || run.Err != nil {
		t.Fatalf("threads 0: run %+v, err %v; want only a returned error", run, err)
	}
}

// TestCrashRecoveryAcrossPhases is the core tentpole check: for every
// persistence-enabled configuration, power failures planted throughout
// the GC pause must always recover to a heap isomorphic to the pre-GC
// live graph, and a collection that beats its crash point must leave
// the graph intact.
func TestCrashRecoveryAcrossPhases(t *testing.T) {
	fracs := []float64{0.02, 0.10, 0.25, 0.40, 0.55, 0.70, 0.85, 0.93, 0.98}
	for _, cc := range crashConfigs() {
		t.Run(cc.name, func(t *testing.T) {
			outcomes := map[RecoveryOutcome]int{}
			for i, run := range crashAtFracs(t, cc, fracs...) {
				// Under persistence barriers the scanner finds no corrupt region.
				if run.Err != nil || run.Recovery.Scan.Corrupt != 0 {
					t.Fatalf("frac %.2f (crashed %v, report %+v): %v", fracs[i], run.Crashed, run.Recovery, run.Err)
				}
				if run.Crashed {
					outcomes[run.Recovery.Outcome]++
				}
			}
			if outcomes[RecoveryRolledBack] == 0 {
				t.Fatalf("no crash point exercised rollback: %v", outcomes)
			}
		})
	}
}

// TestCrashInsideCheckpointWindow crashes immediately after the collection
// starts — inside the checkpoint window, before the journal header's
// state=active line can persist. The durable image then shows an idle
// journal carrying the previous epoch; recovery must read that as "nothing
// of this collection reached the media" and roll the volatile bookkeeping
// back, not mistake it for a committed journal and roll a barely-started
// collection forward over live from-space data.
func TestCrashInsideCheckpointWindow(t *testing.T) {
	_, m, g, pre := crashEnv(t, crashConfigs()[0]) // vanilla+adr
	run := collectThroughCrash(t, g, memsim.FaultPlan{CrashAtTime: m.Now() + 1}, pre)
	if !run.Crashed || run.Err != nil {
		t.Fatalf("crashed %v, outcome %v, journalActive=%v: %v", run.Crashed, run.Recovery.Outcome, run.Recovery.JournalActive, run.Err)
	}
	if run.Recovery.Outcome == RecoveryRolledForward {
		t.Fatalf("pre-checkpoint crash rolled forward: %+v", run.Recovery)
	}
}

// TestRecoveredHeapSupportsAnotherGC re-runs a full collection on a
// recovered heap: rollback must leave allocation cursors, region lists,
// and remembered sets in a state the collector can operate on.
func TestRecoveredHeapSupportsAnotherGC(t *testing.T) {
	cc := crashConfigs()[1] // writecache+adr
	start, s := dryRun(t, cc)
	h, _, g, pre := crashEnv(t, cc)
	run := collectThroughCrash(t, g, memsim.FaultPlan{CrashAtTime: start + s.Pause/2, TornLine: true}, pre)
	if !run.Crashed || run.Err != nil {
		t.Fatalf("crashed %v: %v", run.Crashed, run.Err)
	}
	if s := collectAndVerify(t, h, g, 4); s.ObjectsCopied == 0 {
		t.Fatalf("post-recovery collection copied nothing: %+v", s)
	}
}

// TestCrashAfterCommitRollsForward plants the crash in the tail of the
// pause (after the persist barrier has committed the journal): recovery
// must complete the collection rather than undo it.
func TestCrashAfterCommitRollsForward(t *testing.T) {
	cc := crashConfigs()[2] // all+adr: has a header-map cleanup tail
	start, s := dryRun(t, cc)
	if s.Cleanup <= 0 {
		t.Skip("no cleanup tail after the journal commit in this configuration")
	}
	// The only charged operations after the commit are the header-map
	// stripe clears starting right at the commit barrier's release, so the
	// hittable post-commit crash points cluster around that instant.
	commitEnd := start + s.Pause - s.Cleanup
	var sawForward bool
	for _, off := range []memsim.Time{-60, -10, 0, 30} {
		_, _, g, pre := crashEnv(t, cc)
		run := collectThroughCrash(t, g, memsim.FaultPlan{CrashAtTime: commitEnd + off}, pre)
		if run.Err != nil {
			t.Fatalf("off %v (crashed %v, outcome %v): %v", off, run.Crashed, run.Recovery.Outcome, run.Err)
		}
		sawForward = sawForward || run.Recovery.Outcome == RecoveryRolledForward
	}
	if !sawForward {
		t.Fatal("no crash point near the commit boundary rolled forward")
	}
}

// TestCrashWithoutBarriersIsFlagged documents PersistNone: without
// journaling and persist barriers, mid-GC crashes must never be falsely
// reported as recovered — and across a spread of points at least one must
// be flagged unrecoverable. A collection that beats its crash point must
// still leave the graph intact.
func TestCrashWithoutBarriersIsFlagged(t *testing.T) {
	fracs := []float64{0.15, 0.30, 0.45, 0.60, 0.75, 0.90}
	flagged := 0
	for i, run := range crashAtFracs(t, crashConfig{"vanilla+none", Vanilla(), nil}, fracs...) {
		switch {
		case !run.Crashed && run.Err != nil:
			t.Fatalf("frac %v: uncrashed collection broke the graph: %v", fracs[i], run.Err)
		case run.Err != nil && strings.HasPrefix(run.Err.Error(), "gc: recovery") && run.Recovery.Outcome != RecoveryUnrecoverable:
			t.Fatalf("frac %v: recovery error %v but outcome %v", fracs[i], run.Err, run.Recovery.Outcome)
		case run.Err != nil:
			// Recovery failed, or its structural scan passed but the
			// isomorphism proof found a different graph: either way the
			// point is flagged, never reported clean.
			flagged++
		}
	}
	if flagged == 0 {
		t.Fatal("no unprotected crash point was flagged: fault injection is not biting")
	}
}

// TestSalvageSweepWithoutJournal crashes a PersistNone collection on a
// 4 KiB LLC, so forwarding headers and updated slots reach the media with
// no journal recording them: recovery's salvage sweep must revert those
// headers, remap the slots back to the from-space originals, and, this
// early in the pause, restore the pre-GC graph.
func TestSalvageSweepWithoutJournal(t *testing.T) {
	cc := crashConfig{"vanilla+none", Vanilla(), func(mc *memsim.Config, _ *heap.Config) { mc.LLCBytes = 1 << 12 }}
	start, s := dryRun(t, cc)
	_, _, g, pre := crashEnv(t, cc)
	run := collectThroughCrash(t, g, memsim.FaultPlan{CrashAtTime: start + s.Pause*15/100}, pre)
	if rep := run.Recovery; !run.Crashed || rep.JournalActive || rep.EntriesUndone != 0 || rep.ForwardsSwept == 0 || rep.SlotsRemapped == 0 {
		t.Fatalf("want a salvage without journal entries, got crashed %v, %+v", run.Crashed, rep)
	}
	if run.Err != nil {
		t.Fatalf("salvaged heap (outcome %v): %v", run.Recovery.Outcome, run.Err)
	}
}

// TestOversizedHeaderIsAnError plants an info word claiming 2^31 words in
// a rooted ref[] object, the shape a torn header can take. Every entry
// point that reads a possibly corrupt image must report it, not panic
// reading slots past the heap, and the post-crash scanner must call the
// region corrupt.
func TestOversizedHeaderIsAnError(t *testing.T) {
	h, m := testEnv(t)
	refs, err := h.Klasses.DefineArray("ref[]", true)
	if err != nil {
		t.Fatal(err)
	}
	var arr heap.Address
	m.Run(1, func(w *memsim.Worker) {
		arr, _ = h.AllocateEden(w, refs, 4)
		child, _ := h.AllocateEden(w, refs, 4)
		h.SetRefInit(w, arr, 2, child)
		h.Roots.Add(w, arr)
	})
	g, err := NewG1(h, Vanilla())
	if err != nil {
		t.Fatal(err)
	}
	pre := liveGraph(t, h)
	h.Poke(heap.InfoAddr(arr), heap.MakeInfo(refs.ID, 1<<31))

	const want = "ends past the bump pointer"
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"CheckInvariants", h.CheckInvariants},
		{"Capture", func() error { _, err := check.Capture(h); return err }},
		{"AtBoundary", func() error {
			err := check.AtBoundary(check.PreGC, check.State{Heap: h})
			wantViolation(t, err, "region-parse")
			return err
		}},
		{"recoverHeap", func() error {
			rep, err := g.recoverHeap()
			if rep.Outcome != RecoveryUnrecoverable {
				t.Errorf("recoverHeap outcome %v, want %v", rep.Outcome, RecoveryUnrecoverable)
			}
			return err
		}},
		{"VerifyRecovered", func() error { return check.VerifyRecovered(h, pre) }},
	} {
		if err := tc.run(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: %v, want an error containing %q", tc.name, err, want)
		}
	}
	for _, rs := range h.ScanPostCrash().Regions {
		if rs.Index == h.RegionOf(arr).Index && rs.Class != heap.RegionCorrupt {
			t.Errorf("scan = %+v, want %v", rs, heap.RegionCorrupt)
		}
	}
}

// TestJournalFullAbortsCollection shrinks the journal area until it
// overflows mid-GC: the collection must abort with an explicit error, not
// silently continue un-journaled.
func TestJournalFullAbortsCollection(t *testing.T) {
	cc := crashConfigs()[0] // vanilla+adr
	cc.shape = func(mc *memsim.Config, hc *heap.Config) {
		mc.LLCBytes = 1 << 12
		hc.MetaBytes = 256 // header + 6 entries
	}
	_, _, g, _ := crashEnv(t, cc)
	_, err := g.Collect(4)
	if err == nil {
		t.Fatal("collection with a 6-entry journal should overflow")
	}
	if errors.Is(err, ErrCrashed) {
		t.Fatalf("journal overflow misreported as a crash: %v", err)
	}
	if !strings.Contains(err.Error(), "journal full") {
		t.Fatalf("error %q does not mention a full journal", err)
	}
}
