package gc

import (
	"errors"
	"fmt"
	"testing"

	"nvmgc/internal/check"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

// crashConfig is one (collector options, persistence domain) combination
// exercised by the crash tests.
type crashConfig struct {
	name string
	opt  Options
	eADR bool
}

func crashConfigs() []crashConfig {
	hm1 := Optimized()
	hm1.HeaderMapMinThreads = 1
	hm1.Persist = PersistADR
	hmE := hm1
	hmE.Persist = PersistEADR
	van := Vanilla()
	van.Persist = PersistADR
	wc := WithWriteCache()
	wc.Persist = PersistADR
	return []crashConfig{
		{name: "vanilla+adr", opt: van},
		{name: "writecache+adr", opt: wc},
		{name: "all+adr", opt: hm1},
		{name: "all+eadr", opt: hmE, eADR: true},
	}
}

// crashEnv builds a persistence-tracked machine/heap/collector triple with
// a populated graph, declares the mutator state durable (the campaign
// contract: application data was persisted before GC entry), and captures
// the pre-GC live graph.
func crashEnv(t *testing.T, cc crashConfig) (*heap.Heap, *memsim.Machine, *G1, *check.Snapshot) {
	return crashEnvPlaced(t, cc, "")
}

// crashEnvPlaced is crashEnv with the metadata/journal area placed on a
// named tier of a three-tier topology (the default two-tier machine when
// metaTier is empty). "nvm2" is a second persistent Optane tier; recovery
// must be placement-independent, so the crash campaign and fuzzer also run
// with the journal there.
func crashEnvPlaced(t *testing.T, cc crashConfig, metaTier string) (*heap.Heap, *memsim.Machine, *G1, *check.Snapshot) {
	t.Helper()
	return crashEnvLLC(t, cc, metaTier, 1<<17)
}

// crashEnvLLC is crashEnvPlaced with an LLC of llcBytes: the smaller the
// cache, the more of a collection's stores reach the media before a crash.
func crashEnvLLC(t *testing.T, cc crashConfig, metaTier string, llcBytes int64) (*heap.Heap, *memsim.Machine, *G1, *check.Snapshot) {
	t.Helper()
	cfg := memsim.DefaultConfig()
	cfg.LLCBytes = llcBytes
	if metaTier != "" {
		cfg.Tiers = append(cfg.Tiers,
			memsim.TierSpec{Name: "nvm2", Profile: memsim.OptaneProfile(), Persistent: true, Interleave: 6})
	}
	m := memsim.NewMachine(cfg)
	m.EnablePersist(m.NVM, cc.eADR)
	hc := heap.DefaultConfig()
	hc.Placement.Meta = metaTier
	hc.RegionBytes = 16 << 10
	hc.HeapRegions = 256
	hc.CacheRegions = 64
	hc.EdenRegions = 48
	hc.SurvivorRegions = 32
	hc.AuxBytes = 2 << 20
	hc.MetaBytes = 1 << 20
	hc.RootSlots = 1 << 12
	hc.Poison = true
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

// dryRunPause measures one collection's pause on a twin environment so
// crash points can be planted at known fractions of it.
func dryRunPause(t *testing.T, cc crashConfig, threads int) (memsim.Time, memsim.Time) {
	t.Helper()
	start, s := dryRunStats(t, cc, threads)
	return start, s.Pause
}

func dryRunStats(t *testing.T, cc crashConfig, threads int) (memsim.Time, CollectionStats) {
	t.Helper()
	_, m, g, _ := crashEnv(t, cc)
	start := m.Now()
	s, err := g.Collect(threads)
	if err != nil {
		t.Fatalf("%s: dry run: %v", cc.name, err)
	}
	return start, s
}

// TestCrashRecoveryAcrossPhases is the core tentpole check: for every
// persistence-enabled configuration, power failures planted throughout
// the GC pause must always recover to a heap isomorphic to the pre-GC
// live graph.
func TestCrashRecoveryAcrossPhases(t *testing.T) {
	const threads = 4
	fracs := []float64{0.02, 0.10, 0.25, 0.40, 0.55, 0.70, 0.85, 0.93, 0.98}
	for _, cc := range crashConfigs() {
		t.Run(cc.name, func(t *testing.T) {
			start, pause := dryRunPause(t, cc, threads)
			outcomes := map[RecoveryOutcome]int{}
			for _, frac := range fracs {
				at := start + memsim.Time(frac*float64(pause))
				h, m, g, pre := crashEnv(t, cc)
				m.InjectFault(memsim.FaultPlan{CrashAtTime: at, TornLine: true})
				_, err := g.Collect(threads)
				if err == nil {
					// The collection beat the crash point (timing can shift
					// slightly once barriers are charged): nothing to recover.
					continue
				}
				if !errors.Is(err, ErrCrashed) {
					t.Fatalf("frac %.2f: want ErrCrashed, got %v", frac, err)
				}
				if _, err := m.MaterializeCrash(); err != nil {
					t.Fatalf("frac %.2f: materialize: %v", frac, err)
				}
				rep, err := g.Recover()
				if err != nil {
					t.Fatalf("frac %.2f: recover: %v (report %+v)", frac, err, rep)
				}
				if rep.Scan.Corrupt != 0 {
					t.Fatalf("frac %.2f: scanner found %d corrupt regions under persistence barriers", frac, rep.Scan.Corrupt)
				}
				if err := check.VerifyRecovered(h, pre); err != nil {
					t.Fatalf("frac %.2f (outcome %v): %v", frac, rep.Outcome, err)
				}
				outcomes[rep.Outcome]++
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
	cc := crashConfigs()[0] // vanilla+adr
	h, m, g, pre := crashEnv(t, cc)
	start := m.Now()
	m.InjectFault(memsim.FaultPlan{CrashAtTime: start + 1})
	_, err := g.Collect(4)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("want ErrCrashed, got %v", err)
	}
	if _, err := m.MaterializeCrash(); err != nil {
		t.Fatal(err)
	}
	rep, err := g.Recover()
	if err != nil {
		t.Fatalf("recover failed (outcome %v, journalActive=%v): %v", rep.Outcome, rep.JournalActive, err)
	}
	if rep.Outcome == RecoveryRolledForward {
		t.Fatalf("pre-checkpoint crash rolled forward: %+v", rep)
	}
	if err := check.VerifyRecovered(h, pre); err != nil {
		t.Fatalf("verify failed after outcome %v: %v", rep.Outcome, err)
	}
}

// TestRecoveredHeapSupportsAnotherGC re-runs a full collection on a
// recovered heap: rollback must leave allocation cursors, region lists,
// and remembered sets in a state the collector can operate on.
func TestRecoveredHeapSupportsAnotherGC(t *testing.T) {
	const threads = 4
	cc := crashConfigs()[1] // writecache+adr
	start, pause := dryRunPause(t, cc, threads)
	h, m, g, pre := crashEnv(t, cc)
	m.InjectFault(memsim.FaultPlan{CrashAtTime: start + pause/2, TornLine: true})
	if _, err := g.Collect(threads); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want ErrCrashed, got %v", err)
	}
	if _, err := m.MaterializeCrash(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := check.VerifyRecovered(h, pre); err != nil {
		t.Fatal(err)
	}
	s, err := g.Collect(threads)
	if err != nil {
		t.Fatalf("post-recovery collection: %v", err)
	}
	if s.ObjectsCopied == 0 {
		t.Fatalf("post-recovery collection copied nothing: %+v", s)
	}
	if err := check.VerifyRecovered(h, pre); err != nil {
		t.Fatalf("post-recovery collection broke the graph: %v", err)
	}
}

// TestCrashAfterCommitRollsForward plants the crash in the tail of the
// pause (after the persist barrier has committed the journal): recovery
// must complete the collection rather than undo it.
func TestCrashAfterCommitRollsForward(t *testing.T) {
	const threads = 4
	cc := crashConfigs()[2] // all+adr: has a header-map cleanup tail
	start, s := dryRunStats(t, cc, threads)
	if s.Cleanup <= 0 {
		t.Skip("no cleanup tail after the journal commit in this configuration")
	}
	// The only charged operations after the commit are the header-map
	// stripe clears starting right at the commit barrier's release, so the
	// hittable post-commit crash points cluster around that instant.
	commitEnd := start + s.Pause - s.Cleanup
	var sawForward bool
	for _, off := range []memsim.Time{-60, -10, 0, 30} {
		h, m, g, pre := crashEnv(t, cc)
		m.InjectFault(memsim.FaultPlan{CrashAtTime: commitEnd + off})
		_, err := g.Collect(threads)
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("off %v: %v", off, err)
		}
		if _, err := m.MaterializeCrash(); err != nil {
			t.Fatal(err)
		}
		rep, err := g.Recover()
		if err != nil {
			t.Fatalf("off %v: recover: %v", off, err)
		}
		if err := check.VerifyRecovered(h, pre); err != nil {
			t.Fatalf("off %v (outcome %v): %v", off, rep.Outcome, err)
		}
		if rep.Outcome == RecoveryRolledForward {
			sawForward = true
		}
	}
	if !sawForward {
		t.Fatal("no crash point near the commit boundary rolled forward")
	}
}

// TestCrashWithoutBarriersIsFlagged documents PersistNone: without
// journaling and persist barriers, mid-GC crashes must never be falsely
// reported as recovered — and across a spread of points at least one must
// be flagged unrecoverable.
func TestCrashWithoutBarriersIsFlagged(t *testing.T) {
	const threads = 4
	cc := crashConfig{name: "vanilla+none", opt: Vanilla()}
	start, pause := dryRunPause(t, cc, threads)
	var flagged, survived int
	for _, frac := range []float64{0.15, 0.30, 0.45, 0.60, 0.75, 0.90} {
		h, m, g, pre := crashEnv(t, cc)
		m.InjectFault(memsim.FaultPlan{CrashAtTime: start + memsim.Time(frac*float64(pause)), TornLine: true})
		_, err := g.Collect(threads)
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("frac %v: %v", frac, err)
		}
		if _, err := m.MaterializeCrash(); err != nil {
			t.Fatal(err)
		}
		rep, rerr := g.Recover()
		verr := check.VerifyRecovered(h, pre)
		switch {
		case rerr != nil:
			if rep.Outcome != RecoveryUnrecoverable {
				t.Fatalf("frac %v: error %v but outcome %v", frac, rerr, rep.Outcome)
			}
			flagged++
		case verr != nil:
			// The structural scan passed but the graph is not the pre-GC
			// graph: the isomorphism proof catches it. This still counts as
			// flagged — the false claim would be reporting *both* clean.
			flagged++
		default:
			survived++
		}
	}
	if flagged == 0 {
		t.Fatalf("every unprotected crash point recovered (flagged=0, survived=%d); fault injection is not biting", survived)
	}
}

// TestSalvageSweepWithoutJournal crashes a PersistNone collection on a
// 4 KiB LLC, so forwarding headers and updated slots reach the media with
// no journal recording them: recovery's salvage sweep must revert those
// headers, remap the slots back to the from-space originals, and, this
// early in the pause, restore the pre-GC graph.
func TestSalvageSweepWithoutJournal(t *testing.T) {
	const threads = 4
	cc := crashConfig{name: "vanilla+none", opt: Vanilla()}
	_, m, g, _ := crashEnvLLC(t, cc, "", 1<<12)
	start := m.Now()
	s, err := g.Collect(threads)
	if err != nil {
		t.Fatal(err)
	}
	h, m, g, pre := crashEnvLLC(t, cc, "", 1<<12)
	m.InjectFault(memsim.FaultPlan{CrashAtTime: start + s.Pause*15/100})
	if _, err := g.Collect(threads); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want ErrCrashed, got %v", err)
	}
	if _, err := m.MaterializeCrash(); err != nil {
		t.Fatal(err)
	}
	rep, err := g.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.JournalActive || rep.EntriesUndone != 0 || rep.ForwardsSwept == 0 || rep.SlotsRemapped == 0 {
		t.Fatalf("want a salvage without journal entries, got %+v", rep)
	}
	if err := check.VerifyRecovered(h, pre); err != nil {
		t.Fatalf("salvaged heap (outcome %v): %v", rep.Outcome, err)
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
		{"Recover", func() error {
			rep, err := g.Recover()
			if rep.Outcome != RecoveryUnrecoverable {
				t.Errorf("Recover outcome %v, want %v", rep.Outcome, RecoveryUnrecoverable)
			}
			return err
		}},
		{"VerifyRecovered", func() error { return check.VerifyRecovered(h, pre) }},
	} {
		if err := tc.run(); err == nil || !contains(err.Error(), want) {
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
	cfg := memsim.DefaultConfig()
	cfg.LLCBytes = 1 << 12
	m := memsim.NewMachine(cfg)
	m.EnablePersist(m.NVM, false)
	hc := heap.DefaultConfig()
	hc.RegionBytes = 16 << 10
	hc.HeapRegions = 256
	hc.CacheRegions = 64
	hc.EdenRegions = 48
	hc.SurvivorRegions = 32
	hc.AuxBytes = 2 << 20
	hc.MetaBytes = 256 // header + 6 entries
	hc.RootSlots = 1 << 12
	h, err := heap.New(m, hc)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, h, m, defaultSpec())
	opt := Vanilla()
	opt.Persist = PersistADR
	g, err := NewG1(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, err = g.Collect(4)
	if err == nil {
		t.Fatal("collection with a 6-entry journal should overflow")
	}
	if errors.Is(err, ErrCrashed) {
		t.Fatalf("journal overflow misreported as a crash: %v", err)
	}
	want := fmt.Sprintf("journal full")
	if got := err.Error(); !contains(got, want) {
		t.Fatalf("error %q does not mention %q", got, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
