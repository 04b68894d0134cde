package workload

import (
	"slices"
	"testing"

	"nvmgc/internal/gc"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

func newEnv(t *testing.T, kind memsim.Kind) *heap.Heap {
	t.Helper()
	return newEnvMode(t, kind, false)
}

// scenario resolves a registered scenario or fails the test.
func scenario(t *testing.T, name string) Spec {
	t.Helper()
	s, err := ScenarioByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestProfilesTableValid(t *testing.T) {
	var ps []Profile
	for _, s := range Scenarios() {
		if s.Family == "legacy" {
			ps = append(ps, *s.Profile)
		}
	}
	if len(ps) != 26 {
		t.Fatalf("expected 26 applications, got %d", len(ps))
	}
	seen := map[string]bool{}
	spark := 0
	for _, p := range ps {
		if err := p.valid(); err != nil {
			t.Error(err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if p.Suite == "spark" {
			spark++
		} else if p.Suite != "renaissance" {
			t.Errorf("%s: unknown suite %q", p.Name, p.Suite)
		}
	}
	if spark != 4 {
		t.Errorf("expected 4 spark apps, got %d", spark)
	}
	// Paper-order: alphabetical on the figure axis.
	for i := 1; i < len(ps); i++ {
		if ps[i-1].Name >= ps[i].Name {
			t.Errorf("profiles out of order: %q before %q", ps[i-1].Name, ps[i].Name)
		}
	}
}

func runProfile(t *testing.T, name string, kind memsim.Kind, opt gc.Options, threads int, scale float64) Result {
	t.Helper()
	h := newEnv(t, kind)
	col, err := gc.NewG1(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := scenario(t, name).NewRunner(col, Config{GCThreads: threads, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("heap corrupt after run: %v", err)
	}
	return res
}

func TestRunProducesCollections(t *testing.T) {
	res := runProfile(t, "page-rank", memsim.NVM, gc.Vanilla(), 8, 0.3)
	if len(res.Collections) < 2 {
		t.Fatalf("expected multiple GCs, got %d", len(res.Collections))
	}
	if res.GC <= 0 || res.App <= 0 || res.Total != res.App+res.GC {
		t.Fatalf("time accounting broken: %+v", res)
	}
	if res.Allocated == 0 {
		t.Fatal("nothing allocated")
	}
	tot := res.GCTotals()
	if tot.Collections != len(res.Collections) || tot.BytesCopied == 0 {
		t.Fatalf("totals: %+v", tot)
	}
}

func TestRunDeterminism(t *testing.T) {
	a := runProfile(t, "als", memsim.NVM, gc.Optimized(), 8, 0.25)
	b := runProfile(t, "als", memsim.NVM, gc.Optimized(), 8, 0.25)
	if a.Total != b.Total || a.GC != b.GC || a.Allocated != b.Allocated {
		t.Fatalf("nondeterministic run: %+v vs %+v", a, b)
	}
}

func TestNVMSlowerThanDRAM(t *testing.T) {
	nvm := runProfile(t, "page-rank", memsim.NVM, gc.Vanilla(), 8, 0.3)
	dram := runProfile(t, "page-rank", memsim.DRAM, gc.Vanilla(), 8, 0.3)
	if nvm.GC <= dram.GC {
		t.Fatalf("GC on NVM (%d) should exceed DRAM (%d)", nvm.GC, dram.GC)
	}
	ratio := float64(nvm.GC) / float64(dram.GC)
	if ratio < 1.5 {
		t.Fatalf("GC slowdown %0.2fx too small — the paper reports 2-8x", ratio)
	}
	if nvm.App <= dram.App {
		t.Fatalf("app time on NVM (%d) should exceed DRAM (%d)", nvm.App, dram.App)
	}
	appRatio := float64(nvm.App) / float64(dram.App)
	if appRatio >= ratio {
		t.Fatalf("GC should be hit harder than the app: gc %0.2fx vs app %0.2fx", ratio, appRatio)
	}
}

func TestOptimizationsImproveNVMGC(t *testing.T) {
	vanilla := runProfile(t, "page-rank", memsim.NVM, gc.Vanilla(), 16, 0.3)
	opt := runProfile(t, "page-rank", memsim.NVM, gc.Optimized(), 16, 0.3)
	if opt.GC >= vanilla.GC {
		t.Fatalf("optimized GC (%d) should beat vanilla (%d) on NVM", opt.GC, vanilla.GC)
	}
}

func TestSurvivalRatioRoughlyHolds(t *testing.T) {
	res := runProfile(t, "kmeans", memsim.NVM, gc.Vanilla(), 8, 0.4)
	var copied int64
	for _, c := range res.Collections {
		copied += c.BytesCopied
	}
	frac := float64(copied) / float64(res.Allocated)
	p := scenario(t, "kmeans").Profile
	// Copied bytes per allocated byte should be in the same ballpark as
	// the configured survival ratio (re-copying of aged survivors makes
	// it somewhat higher).
	if frac < p.Survival*0.4 || frac > p.Survival*2.5 {
		t.Fatalf("copied/allocated = %0.3f, survival target %0.2f", frac, p.Survival)
	}
}

func TestRemSetsArePopulated(t *testing.T) {
	// Spark profiles anchor clusters in old holders; collections must see
	// non-trivial remembered sets (slot counts beyond the root set).
	res := runProfile(t, "page-rank", memsim.NVM, gc.Vanilla(), 8, 0.3)
	var slots int64
	for _, c := range res.Collections {
		slots += c.SlotsProcessed
	}
	if slots == 0 {
		t.Fatal("no slots processed")
	}
	var promoted int64
	for _, c := range res.Collections {
		promoted += c.ObjectsPromoted
	}
	if promoted == 0 {
		t.Fatal("no promotion traffic — churn/aging is miswired")
	}
}

func TestLowGCAppsBarelyCollect(t *testing.T) {
	quiet := runProfile(t, "scala-doku", memsim.NVM, gc.Vanilla(), 8, 1)
	busy := runProfile(t, "page-rank", memsim.NVM, gc.Vanilla(), 8, 1)
	if len(quiet.Collections) >= len(busy.Collections) {
		t.Fatalf("scala-doku (%d GCs) should collect less than page-rank (%d)",
			len(quiet.Collections), len(busy.Collections))
	}
	qShare := float64(quiet.GC) / float64(quiet.Total)
	bShare := float64(busy.GC) / float64(busy.Total)
	if qShare >= bShare {
		t.Fatalf("GC share: doku %0.3f should be below page-rank %0.3f", qShare, bShare)
	}
}

// loadCase is one scenario of the under-load tests, at the smallest scale
// that cycles eden often enough to trigger the rarer collection kinds.
type loadCase struct {
	name  string
	scale float64
}

// forwardingCollector wraps a collector the way benchmarks/' timedCollector
// does: the run loop must find CollectMixed/CollectFull on the wrapper.
type forwardingCollector struct {
	*gc.G1
	mixed, full int
	beforeFull  func() // optional hook ahead of each full collection
}

func (f *forwardingCollector) CollectMixed(threads, maxOld int) (gc.CollectionStats, error) {
	f.mixed++
	return f.G1.CollectMixed(threads, maxOld)
}

func (f *forwardingCollector) CollectFull(threads int) (gc.CollectionStats, error) {
	f.full++
	if f.beforeFull != nil {
		f.beforeFull()
	}
	return f.G1.CollectFull(threads)
}

func TestFullGCUnderLoad(t *testing.T) {
	// ycsb-a is the keyed input: a full GC moves its index tables, so the
	// run only stays consistent if the keyed mutator re-reads them.
	for _, tc := range []loadCase{{"page-rank", 0.4}, {"ycsb-a", 1.5}} {
		name, scale := tc.name, tc.scale
		h := newEnv(t, memsim.NVM)
		g1, err := gc.NewG1(h, gc.Optimized())
		if err != nil {
			t.Fatal(err)
		}
		col := &forwardingCollector{G1: g1}
		r, err := scenario(t, name).NewRunner(col, Config{GCThreads: 8, Scale: scale, FullGCEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		km, keyed := r.mut.(*keyedMutator)
		var stale []heap.Address // the table addresses going into the last full GC
		if keyed {
			col.beforeFull = func() { stale = append(stale[:0], km.tables...) }
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if keyed {
			if slices.Equal(stale, km.tables) {
				t.Fatalf("%s: the full GC left the index tables in place; the refresh is not exercised", name)
			}
			for i, slot := range km.tableRoots {
				if km.tables[i] != h.Peek(slot) {
					t.Fatalf("%s: table %d held at stale address %#x, root slot says %#x",
						name, i, km.tables[i], h.Peek(slot))
				}
			}
		}
		fullGCs := 0
		for _, c := range res.Collections {
			if c.Full {
				fullGCs++
			}
		}
		if fullGCs == 0 || fullGCs != col.full {
			t.Fatalf("%s: %d full GCs in the result, %d through the wrapper", name, fullGCs, col.full)
		}
		if err := h.CheckInvariants(); err != nil {
			t.Fatalf("%s: heap corrupt after full GCs under load: %v", name, err)
		}
		// Full GCs compact the old space: live old bytes must be bounded.
		var oldBytes int64
		for _, reg := range h.Old() {
			oldBytes += reg.UsedBytes()
		}
		if oldBytes > h.HeapBytes()/2 {
			t.Fatalf("%s: old space not being compacted: %d bytes", name, oldBytes)
		}
	}
}

func TestMutatorStreamIndependentOfGCConfig(t *testing.T) {
	// The mutator's decisions (allocation sequence, keep/drop choices)
	// are driven only by the seeded RNG and allocation progress, never by
	// GC internals — so two runs under different collector options see
	// identical workloads. This is what makes cross-configuration
	// comparisons apples-to-apples.
	a := runProfile(t, "als", memsim.NVM, gc.Vanilla(), 8, 0.25)
	b := runProfile(t, "als", memsim.NVM, gc.Optimized(), 8, 0.25)
	if a.Allocated != b.Allocated {
		t.Fatalf("allocation streams diverged: %d vs %d bytes", a.Allocated, b.Allocated)
	}
	if len(a.Collections) != len(b.Collections) {
		t.Fatalf("GC counts diverged: %d vs %d", len(a.Collections), len(b.Collections))
	}
	for i := range a.Collections {
		if a.Collections[i].BytesCopied != b.Collections[i].BytesCopied {
			t.Fatalf("gc %d: live sets diverged: %d vs %d bytes",
				i, a.Collections[i].BytesCopied, b.Collections[i].BytesCopied)
		}
	}
}

func TestMixedGCUnderLoad(t *testing.T) {
	for _, tc := range []loadCase{{"kmeans", 0.4}, {"ycsb-a", 1.5}} {
		name, scale := tc.name, tc.scale
		h := newEnv(t, memsim.NVM)
		g1, err := gc.NewG1(h, gc.Optimized())
		if err != nil {
			t.Fatal(err)
		}
		col := &forwardingCollector{G1: g1}
		r, err := scenario(t, name).NewRunner(col, Config{GCThreads: 8, Scale: scale, MixedGCEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		mixed := 0
		for _, c := range res.Collections {
			if c.Mixed {
				mixed++
			}
		}
		if mixed == 0 || mixed != col.mixed {
			t.Fatalf("%s: %d mixed GCs in the result, %d through the wrapper", name, mixed, col.mixed)
		}
		if err := h.CheckInvariants(); err != nil {
			t.Fatalf("%s: heap corrupt after mixed GCs under load: %v", name, err)
		}
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	h := newEnv(t, memsim.NVM)
	col, _ := gc.NewG1(h, gc.Vanilla())
	if _, err := (Spec{Profile: &Profile{}}).NewRunner(col, Config{}); err == nil {
		t.Fatal("empty profile should be rejected")
	}
}

func TestPSRunsAllProfilesSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full profile sweep in long mode only")
	}
	for _, name := range []string{"naive-bayes", "akka-uct", "movie-lens"} {
		h := newEnv(t, memsim.NVM)
		col, err := gc.NewPS(h, gc.Optimized())
		if err != nil {
			t.Fatal(err)
		}
		r, err := scenario(t, name).NewRunner(col, Config{GCThreads: 8, Scale: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := h.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
