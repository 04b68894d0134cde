package gc

import (
	"math/rand/v2"
	"testing"

	"nvmgc/internal/check"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

// testEnv builds a machine+heap pair sized for fast tests.
func testEnv(t *testing.T) (*heap.Heap, *memsim.Machine) {
	t.Helper()
	cfg := memsim.DefaultConfig()
	cfg.LLCBytes = 1 << 17
	m := memsim.NewMachine(cfg)
	hc := heap.DefaultConfig()
	hc.RegionBytes = 16 << 10
	hc.HeapRegions = 256
	hc.CacheRegions = 64
	hc.EdenRegions = 48
	hc.SurvivorRegions = 32
	hc.AuxBytes = 2 << 20
	hc.RootSlots = 1 << 12
	hc.Poison = true
	h, err := heap.New(m, hc)
	if err != nil {
		t.Fatal(err)
	}
	return h, m
}

// graphSpec controls the synthetic object graph populate() builds.
type graphSpec struct {
	objects    int
	chainProb  float64 // link to previous object
	rootProb   float64 // keep reachable via a root slot
	arrayProb  float64 // allocate a primitive array instead of a node
	arrayWords int64
	oldHolders int // long-lived old objects holding young refs
	hotRoots   int // extra root slots all holding the last eden object
	seed       uint64
}

func defaultSpec() graphSpec {
	return graphSpec{
		objects:    4000,
		chainProb:  0.7,
		rootProb:   0.05,
		arrayProb:  0.1,
		arrayWords: 32,
		oldHolders: 32,
		seed:       1,
	}
}

// populate builds an eden object graph with roots from both the external
// root set and old-space holder objects.
func populate(t *testing.T, h *heap.Heap, m *memsim.Machine, spec graphSpec) {
	t.Helper()
	node := h.Klasses.ByName("node")
	if node == nil {
		var err error
		node, err = h.Klasses.Define("node", 6, []int32{2, 3})
		if err != nil {
			t.Fatal(err)
		}
	}
	arr := h.Klasses.ByName("prim[]")
	if arr == nil {
		var err error
		arr, err = h.Klasses.DefineArray("prim[]", false)
		if err != nil {
			t.Fatal(err)
		}
	}
	holder := h.Klasses.ByName("holder")
	if holder == nil {
		var err error
		holder, err = h.Klasses.Define("holder", 4, []int32{2})
		if err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewPCG(spec.seed, 99))
	m.Run(1, func(w *memsim.Worker) {
		var holders []heap.Address
		for i := 0; i < spec.oldHolders; i++ {
			a, ok := h.AllocateOld(w, holder, 4)
			if !ok {
				t.Error("old allocation failed")
				return
			}
			holders = append(holders, a)
			if _, ok := h.Roots.Add(w, a); !ok {
				t.Error("root set full")
				return
			}
		}
		var prev heap.Address
		for i := 0; i < spec.objects; i++ {
			var a heap.Address
			var ok bool
			if rng.Float64() < spec.arrayProb {
				a, ok = h.AllocateEden(w, arr, spec.arrayWords)
			} else {
				a, ok = h.AllocateEden(w, node, 6)
				if ok {
					h.Poke(heap.SlotAddr(a, 4), uint64(i)) // payload
					if prev != 0 && rng.Float64() < spec.chainProb {
						h.SetRef(w, a, 2, prev)
					}
				}
			}
			if !ok {
				break
			}
			if rng.Float64() < spec.rootProb {
				if len(holders) > 0 && rng.Float64() < 0.5 {
					hld := holders[rng.IntN(len(holders))]
					h.SetRef(w, hld, 2, a)
				} else {
					h.Roots.Add(w, a)
				}
			}
			prev = a
		}
		for i := 0; i < spec.hotRoots && prev != 0; i++ {
			h.Roots.Add(w, prev)
		}
	})
}

// liveGraph captures h's live graph; a heap it cannot capture fails the test.
func liveGraph(t *testing.T, h *heap.Heap) *check.Snapshot {
	t.Helper()
	s, err := check.Capture(h)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// graphDiff names the first difference between h's live graph and want.
func graphDiff(t *testing.T, h *heap.Heap, want *check.Snapshot) error {
	t.Helper()
	return check.Diff(liveGraph(t, h), want)
}

func collectAndVerify(t *testing.T, h *heap.Heap, col Collector, threads int) CollectionStats {
	t.Helper()
	before := liveGraph(t, h)
	s, err := col.Collect(threads)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if err := graphDiff(t, h, before); err != nil {
		t.Fatalf("collection corrupted the graph: %v", err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("heap invariants violated after GC: %v", err)
	}
	if h.FreeCacheRegions() != h.Config().CacheRegions {
		t.Fatalf("cache regions leaked: %d free of %d", h.FreeCacheRegions(), h.Config().CacheRegions)
	}
	return s
}

func TestG1VanillaPreservesGraph(t *testing.T) {
	h, m := testEnv(t)
	populate(t, h, m, defaultSpec())
	g, err := NewG1(h, Vanilla())
	if err != nil {
		t.Fatal(err)
	}
	s := collectAndVerify(t, h, g, 4)
	if s.ObjectsCopied == 0 || s.Pause <= 0 {
		t.Fatalf("suspicious stats: %+v", s)
	}
	if s.WriteOnly > s.Pause/10 {
		t.Fatalf("vanilla should have no write-only phase, got %d of %d", s.WriteOnly, s.Pause)
	}
}

func TestG1OptionMatrixPreservesGraph(t *testing.T) {
	opts := map[string]Options{
		"vanilla":     Vanilla(),
		"writecache":  WithWriteCache(),
		"all":         Optimized(),
		"async":       {WriteCache: true, NonTemporal: true, HeaderMap: true, Prefetch: true, AsyncFlush: true},
		"cached-only": {WriteCache: true},
		"hm-only":     {HeaderMap: true, HeaderMapMinThreads: 1},
		"unlimited":   {WriteCache: true, NonTemporal: true, WriteCacheBytes: -1},
		"tiny-cache":  {WriteCache: true, NonTemporal: true, WriteCacheBytes: 32 << 10},
		"tiny-map":    {HeaderMap: true, HeaderMapMinThreads: 1, HeaderMapBytes: 2 << 10},
		"bfs":         {WriteCache: true, NonTemporal: true, HeaderMap: true, Prefetch: true, BFS: true},
		"fine-flush":  {WriteCache: true, NonTemporal: true, AsyncFlush: true, FlushChunkBytes: 4 << 10},
	}
	for name, opt := range opts {
		t.Run(name, func(t *testing.T) {
			h, m := testEnv(t)
			populate(t, h, m, defaultSpec())
			g, err := NewG1(h, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				collectAndVerify(t, h, g, 8)
				spec := defaultSpec()
				spec.objects = 1500
				spec.seed = uint64(i + 2)
				populate(t, h, m, spec)
			}
		})
	}
}

func TestPSOptionMatrixPreservesGraph(t *testing.T) {
	opts := map[string]Options{
		"vanilla":    Vanilla(),
		"all":        Optimized(),
		"noprefetch": {WriteCache: true, NonTemporal: true, HeaderMap: true},
		"async":      {WriteCache: true, NonTemporal: true, AsyncFlush: true},
	}
	for name, opt := range opts {
		t.Run(name, func(t *testing.T) {
			h, m := testEnv(t)
			spec := defaultSpec()
			spec.arrayProb = 0.25
			spec.arrayWords = 160 // above the PS direct-copy threshold
			populate(t, h, m, spec)
			p, err := NewPS(h, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				collectAndVerify(t, h, p, 8)
				spec.objects = 1500
				spec.seed = uint64(i + 7)
				populate(t, h, m, spec)
			}
		})
	}
}

func TestThreadCountsPreserveGraphAndDeterminism(t *testing.T) {
	for _, threads := range []int{1, 2, 3, 8, 16} {
		var pauses []memsim.Time
		for rep := 0; rep < 2; rep++ {
			h, m := testEnv(t)
			populate(t, h, m, defaultSpec())
			g, _ := NewG1(h, Optimized())
			s := collectAndVerify(t, h, g, threads)
			pauses = append(pauses, s.Pause)
		}
		if pauses[0] != pauses[1] {
			t.Fatalf("threads=%d: nondeterministic pause %d vs %d", threads, pauses[0], pauses[1])
		}
	}
}

func TestSharedReferencesCopyOnce(t *testing.T) {
	// Many slots referencing one object must yield exactly one copy and
	// identical updated slots.
	h, m := testEnv(t)
	node, _ := h.Klasses.Define("node", 6, []int32{2, 3})
	var target heap.Address
	var slots []heap.Address
	m.Run(1, func(w *memsim.Worker) {
		target, _ = h.AllocateEden(w, node, 6)
		for i := 0; i < 50; i++ {
			o, _ := h.AllocateEden(w, node, 6)
			h.SetRef(w, o, 2, target)
			slot, _ := h.Roots.Add(w, o)
			slots = append(slots, slot)
		}
	})
	g, _ := NewG1(h, Vanilla())
	s := collectAndVerify(t, h, g, 8)
	if s.ObjectsCopied != 51 {
		t.Fatalf("objects copied = %d, want 51", s.ObjectsCopied)
	}
	// All holders must agree on the target's new address.
	first := heap.Address(0)
	for _, slot := range slots {
		o := h.Peek(slot)
		tgt := h.Peek(heap.SlotAddr(o, 2))
		if first == 0 {
			first = tgt
		} else if tgt != first {
			t.Fatalf("divergent forwarding: %#x vs %#x", tgt, first)
		}
	}
}

func TestPromotionAfterAging(t *testing.T) {
	h, m := testEnv(t)
	node, _ := h.Klasses.Define("node", 6, []int32{2, 3})
	var root heap.Address
	m.Run(1, func(w *memsim.Worker) {
		a, _ := h.AllocateEden(w, node, 6)
		root, _ = h.Roots.Add(w, a)
	})
	g, _ := NewG1(h, Vanilla())
	// First survival: stays in a survivor region.
	collectAndVerify(t, h, g, 2)
	obj := h.Peek(root)
	if r := h.RegionOf(obj); r.Kind != heap.RegionSurvivor {
		t.Fatalf("after 1 GC: region %v", r.Kind)
	}
	// Second survival: promoted (promoteAge = 2).
	collectAndVerify(t, h, g, 2)
	obj = h.Peek(root)
	if r := h.RegionOf(obj); r.Kind != heap.RegionOld {
		t.Fatalf("after 2 GCs: region %v", r.Kind)
	}
	promoted := g.Collections()[1].ObjectsPromoted
	if promoted != 1 {
		t.Fatalf("promoted = %d", promoted)
	}
	// A third GC must not copy it again.
	s := collectAndVerify(t, h, g, 2)
	if s.ObjectsCopied != 0 {
		t.Fatalf("old object recopied: %+v", s)
	}
}

func TestPromotedRefsLandInRemSets(t *testing.T) {
	// An object promoted while referencing a survivor must produce a
	// remset entry so the next GC sees the survivor as live.
	h, m := testEnv(t)
	node, _ := h.Klasses.Define("node", 6, []int32{2, 3})
	g, _ := NewG1(h, Optimized())
	var rootSlot heap.Address
	m.Run(1, func(w *memsim.Worker) {
		oldie, _ := h.AllocateEden(w, node, 6)
		rootSlot, _ = h.Roots.Add(w, oldie)
		_ = rootSlot
	})
	// Age the object to the brink of promotion.
	collectAndVerify(t, h, g, 8)
	// Give it a fresh young child, then collect: parent promotes while
	// child moves to a survivor region.
	m.Run(1, func(w *memsim.Worker) {
		parent := h.Peek(rootSlot)
		child, _ := h.AllocateEden(w, node, 6)
		h.Poke(heap.SlotAddr(child, 4), 4242)
		h.SetRef(w, parent, 2, child)
	})
	before := liveGraph(t, h)
	collectAndVerify(t, h, g, 8)
	parent := h.Peek(rootSlot)
	if r := h.RegionOf(parent); r.Kind != heap.RegionOld {
		t.Fatalf("parent not promoted: %v", r.Kind)
	}
	child := h.Peek(heap.SlotAddr(parent, 2))
	cr := h.RegionOf(child)
	if cr.Kind != heap.RegionSurvivor {
		t.Fatalf("child region: %v", cr.Kind)
	}
	if cr.RemSet.Len() == 0 {
		t.Fatal("old->survivor edge missing from remset")
	}
	// One more GC: the child must survive via the remset alone.
	collectAndVerify(t, h, g, 8)
	parent = h.Peek(rootSlot)
	child = h.Peek(heap.SlotAddr(parent, 2))
	if h.Peek(heap.SlotAddr(child, 4)) != 4242 {
		t.Fatal("child payload lost across GCs")
	}
	if err := graphDiff(t, h, before); err != nil {
		t.Fatalf("graph changed: %v", err)
	}
}

func TestDeadObjectsReclaimed(t *testing.T) {
	h, m := testEnv(t)
	spec := defaultSpec()
	spec.rootProb = 0 // nothing survives
	spec.oldHolders = 0
	populate(t, h, m, spec)
	g, _ := NewG1(h, WithWriteCache())
	s := collectAndVerify(t, h, g, 4)
	if s.ObjectsCopied != 0 {
		t.Fatalf("copied %d dead objects", s.ObjectsCopied)
	}
	if len(h.Survivors()) != 0 {
		t.Fatalf("empty GC created %d survivor regions", len(h.Survivors()))
	}
	if len(h.FreeHeapRegionIndices()) == 0 {
		t.Fatal("regions not reclaimed")
	}
}

func TestWriteCacheMachinery(t *testing.T) {
	h, m := testEnv(t)
	populate(t, h, m, defaultSpec())
	g, _ := NewG1(h, WithWriteCache())
	s := collectAndVerify(t, h, g, 8)
	if s.CacheRegionsUsed == 0 {
		t.Fatal("write cache unused")
	}
	if s.RegionsFlushedSync == 0 {
		t.Fatal("no sync flushes recorded")
	}
	if s.WriteOnly <= 0 {
		t.Fatal("write-only sub-phase missing")
	}
	// Survivors must live at NVM addresses, not in the DRAM pool.
	for _, r := range h.Survivors() {
		if r.CachePool {
			t.Fatal("survivor region left in cache pool")
		}
	}
}

func TestWriteCacheBudgetFallback(t *testing.T) {
	h, m := testEnv(t)
	spec := defaultSpec()
	spec.rootProb = 0.5 // high survival to overflow the budget
	populate(t, h, m, spec)
	g, _ := NewG1(h, Options{WriteCache: true, NonTemporal: true, WriteCacheBytes: 32 << 10})
	s := collectAndVerify(t, h, g, 4)
	if s.CacheFallbackBytes == 0 {
		t.Fatal("tiny budget should force direct-to-NVM fallback")
	}
}

func TestAsyncFlushRecyclesBudget(t *testing.T) {
	h, m := testEnv(t)
	spec := defaultSpec()
	spec.rootProb = 0.4
	populate(t, h, m, spec)
	opt := Optimized()
	opt.AsyncFlush = true
	opt.WriteCacheBytes = 48 << 10 // 3 regions
	g, _ := NewG1(h, opt)
	s := collectAndVerify(t, h, g, 4)
	if s.RegionsFlushedAsync == 0 {
		t.Fatal("no async flushes despite a tight budget")
	}
}

func TestHeaderMapThreadThreshold(t *testing.T) {
	h, m := testEnv(t)
	populate(t, h, m, defaultSpec())
	g, _ := NewG1(h, Optimized()) // min threads = 8
	s := collectAndVerify(t, h, g, 4)
	if s.HeaderMapInstalls != 0 {
		t.Fatal("header map must stay disabled below the thread threshold")
	}
	spec := defaultSpec()
	spec.objects = 1500
	populate(t, h, m, spec)
	s = collectAndVerify(t, h, g, 8)
	if s.HeaderMapInstalls == 0 {
		t.Fatal("header map unused at 8 threads")
	}
}

func TestHeaderMapFallbackOverflow(t *testing.T) {
	h, m := testEnv(t)
	populate(t, h, m, defaultSpec())
	opt := Optimized()
	opt.HeaderMapBytes = 1 << 10 // 64 entries, guaranteed overflow
	opt.HeaderMapMinThreads = 1
	g, _ := NewG1(h, opt)
	s := collectAndVerify(t, h, g, 4)
	if s.HeaderMapFallbacks == 0 {
		t.Fatal("overflowing map must fall back to NVM headers")
	}
}

func TestWorkStealingHappens(t *testing.T) {
	// A skewed root distribution leaves most threads idle initially;
	// stealing must spread the work.
	h, m := testEnv(t)
	node, _ := h.Klasses.Define("node", 6, []int32{2, 3})
	m.Run(1, func(w *memsim.Worker) {
		// One long chain from a single root: all work reachable from one
		// slot.
		var prev heap.Address
		for i := 0; i < 3000; i++ {
			a, ok := h.AllocateEden(w, node, 6)
			if !ok {
				break
			}
			if prev != 0 {
				h.SetRef(w, a, 2, prev)
			}
			prev = a
		}
		h.Roots.Add(w, prev)
	})
	g, _ := NewG1(h, Vanilla())
	s := collectAndVerify(t, h, g, 8)
	if s.StolenSlots == 0 {
		t.Fatal("no work stealing on a single-chain workload")
	}
}

func TestCollectErrors(t *testing.T) {
	h, _ := testEnv(t)
	g, _ := NewG1(h, Vanilla())
	if _, err := g.Collect(0); err == nil {
		t.Fatal("zero threads should error")
	}
	if _, err := NewG1(h, Options{AsyncFlush: true}); err == nil {
		t.Fatal("AsyncFlush without WriteCache should error")
	}
}

func TestCollectorAccessors(t *testing.T) {
	h, m := testEnv(t)
	populate(t, h, m, defaultSpec())
	g, _ := NewG1(h, Optimized())
	if g.Name() != "g1" || g.Heap() != h || g.HeaderMap() == nil {
		t.Fatal("accessors wrong")
	}
	p, _ := NewPS(h, Vanilla())
	if p.Name() != "ps" || p.HeaderMap() != nil {
		t.Fatal("PS accessors wrong")
	}
	collectAndVerify(t, h, g, 4)
	if len(g.Collections()) != 1 || g.Totals().Collections != 1 {
		t.Fatal("collection bookkeeping wrong")
	}
}

func TestTotalsAccumulate(t *testing.T) {
	stats := []CollectionStats{
		{Pause: 100, BytesCopied: 10, NVM: memsim.DeviceStats{ReadBytes: 5}},
		{Pause: 300, BytesCopied: 20, NVM: memsim.DeviceStats{WriteBytes: 7}},
	}
	tot := TotalsOf(stats)
	if tot.Collections != 2 || tot.Pause != 400 || tot.MaxPause != 300 ||
		tot.BytesCopied != 30 || tot.NVM.ReadBytes != 5 || tot.NVM.WriteBytes != 7 {
		t.Fatalf("totals = %+v", tot)
	}
}
