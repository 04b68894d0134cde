package gc

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

func hmTestHeap(t *testing.T) (*heap.Heap, *memsim.Machine) {
	t.Helper()
	return hmTestHeapSched(t, false)
}

// hmTestHeapSched is hmTestHeap on the default or the eager-yield schedule.
func hmTestHeapSched(t *testing.T, eager bool) (*heap.Heap, *memsim.Machine) {
	t.Helper()
	cfg := memsim.DefaultConfig()
	cfg.LLCBytes = 1 << 16
	cfg.EagerYield = eager
	m := memsim.NewMachine(cfg)
	hc := heap.DefaultConfig()
	hc.HeapRegions = 64
	hc.RegionBytes = 16 << 10
	hc.CacheRegions = 8
	hc.EdenRegions = 16
	hc.SurvivorRegions = 8
	hc.AuxBytes = 4 << 20
	hc.RootSlots = 1 << 10
	h, err := heap.New(m, hc)
	if err != nil {
		t.Fatal(err)
	}
	return h, m
}

func TestHeaderMapPutGet(t *testing.T) {
	h, m := hmTestHeap(t)
	hm, err := NewHeaderMap(h, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(1, func(w *memsim.Worker) {
		if got := hm.Get(w, 0x1000); got != 0 {
			t.Errorf("empty map Get = %#x", got)
		}
		if got := hm.Put(w, 0x1000, 0x2000); got != 0x2000 {
			t.Errorf("Put = %#x", got)
		}
		if got := hm.Get(w, 0x1000); got != 0x2000 {
			t.Errorf("Get = %#x", got)
		}
		// Re-put for the same key returns the existing value.
		if got := hm.Put(w, 0x1000, 0x3000); got != 0x2000 {
			t.Errorf("second Put = %#x, want winner 0x2000", got)
		}
		if hm.Used() != 1 {
			t.Errorf("used = %d", hm.Used())
		}
	})
}

func TestHeaderMapManyKeys(t *testing.T) {
	h, m := hmTestHeap(t)
	hm, err := NewHeaderMap(h, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	m.Run(1, func(w *memsim.Worker) {
		fallbacks := 0
		for i := uint64(0); i < n; i++ {
			old := heap.Address(0x10_0000 + i*64)
			if hm.Put(w, old, old+8) == 0 {
				fallbacks++
			}
		}
		for i := uint64(0); i < n; i++ {
			old := heap.Address(0x10_0000 + i*64)
			got := hm.Get(w, old)
			if got != 0 && got != old+8 {
				t.Fatalf("key %#x: got %#x", old, got)
			}
		}
		// With 64Ki entries and 2000 keys, nearly all should land.
		if fallbacks > n/10 {
			t.Errorf("too many fallbacks: %d", fallbacks)
		}
	})
}

func TestHeaderMapBoundedProbing(t *testing.T) {
	// A tiny map must report full (return 0) rather than loop forever.
	h, m := hmTestHeap(t)
	hm, err := NewHeaderMap(h, 8*16) // 8 entries
	if err != nil {
		t.Fatal(err)
	}
	m.Run(1, func(w *memsim.Worker) {
		full := 0
		for i := uint64(0); i < 64; i++ {
			if hm.Put(w, heap.Address(0x8000+i*8), 0x9000+i*8) == 0 {
				full++
			}
		}
		if full == 0 {
			t.Error("overfull map never reported NULL")
		}
		if hm.Used() > 8 {
			t.Errorf("used %d exceeds capacity", hm.Used())
		}
	})
}

func TestHeaderMapClear(t *testing.T) {
	h, m := hmTestHeap(t)
	hm, _ := NewHeaderMap(h, 64<<10)
	m.Run(1, func(w *memsim.Worker) {
		hm.Put(w, 0x1000, 0x2000)
	})
	m.Run(4, func(w *memsim.Worker) {
		hm.ClearStripe(w, w.ID(), 4)
	})
	m.Run(1, func(w *memsim.Worker) {
		if got := hm.Get(w, 0x1000); got != 0 {
			t.Errorf("Get after clear = %#x", got)
		}
	})
	if hm.Used() != 0 {
		t.Errorf("used after clear = %d", hm.Used())
	}
}

func TestHeaderMapConcurrentSameKey(t *testing.T) {
	// All workers race to install the same key; exactly one value wins
	// and everyone observes it.
	h, m := hmTestHeap(t)
	hm, _ := NewHeaderMap(h, 64<<10)
	results := make([]heap.Address, 8)
	m.Run(8, func(w *memsim.Worker) {
		w.Spin(memsim.Time(w.ID()) + 1)
		results[w.ID()] = hm.Put(w, 0xAAAA000, heap.Address(0xBBB0000+uint64(w.ID())*8))
	})
	first := results[0]
	if first == 0 {
		t.Fatal("no winner")
	}
	for i, r := range results {
		if r != first {
			t.Fatalf("worker %d observed %#x, want %#x", i, r, first)
		}
	}
	if hm.Used() != 1 {
		t.Fatalf("used = %d", hm.Used())
	}
}

func TestHeaderMapRejectsTinyBudget(t *testing.T) {
	h, _ := hmTestHeap(t)
	if _, err := NewHeaderMap(h, 8); err == nil {
		t.Fatal("sub-entry budget should fail")
	}
}

func TestWorkStack(t *testing.T) {
	var s workStack
	if !s.empty() {
		t.Fatal("new stack should be empty")
	}
	if _, ok := s.pop(); ok {
		t.Fatal("pop of empty stack")
	}
	if _, ok := s.steal(); ok {
		t.Fatal("steal of empty stack")
	}
	s.push(1)
	s.push(2)
	s.push(3)
	if s.size() != 3 {
		t.Fatalf("size = %d", s.size())
	}
	// Owner pops LIFO.
	if a, _ := s.pop(); a != 3 {
		t.Fatalf("pop = %d", a)
	}
	// Thief steals the oldest.
	if a, _ := s.steal(); a != 1 {
		t.Fatalf("steal = %d", a)
	}
	if a, _ := s.pop(); a != 2 {
		t.Fatalf("pop = %d", a)
	}
	if !s.empty() {
		t.Fatal("stack should be empty")
	}
	// Interleaved reuse after reset.
	s.push(9)
	if a, _ := s.steal(); a != 9 {
		t.Fatal("steal after reset")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}
	if o.headerMapMinThreads() != 8 {
		t.Fatal("defaults wrong")
	}
	if o.writeCacheBudget(3200) != 100 || o.headerMapBudget(3200) != 100 {
		t.Fatal("1/32 budgets wrong")
	}
	o.WriteCacheBytes = -1
	if o.writeCacheBudget(3200) < 1<<60 {
		t.Fatal("unlimited budget wrong")
	}
	o.WriteCacheBytes = 77
	if o.writeCacheBudget(3200) != 77 {
		t.Fatal("explicit budget wrong")
	}
	if Vanilla().Label() != "vanilla" || WithWriteCache().Label() != "+writecache" || Optimized().Label() != "+all" {
		t.Fatal("labels wrong")
	}
}

// hmDiffOp is one operation of the differential sequence below: a Put of
// key->val, or a Get of key when val is 0.
type hmDiffOp struct{ key, val heap.Address }

// hmDiffOps draws one worker's operation sequence: a small key space over a
// small map, so the same key is installed by several workers at once
// (same-key races, in-flight entries), different keys contend for one slot
// (lost-slot probes) and probe windows fill up (bound-8 overflow).
func hmDiffOps(id, n int) []hmDiffOp {
	rng := rand.New(rand.NewPCG(42, uint64(id)))
	ops := make([]hmDiffOp, n)
	for i := range ops {
		ops[i].key = heap.Address(0x10000 + rng.IntN(60)*64)
		if rng.IntN(3) > 0 {
			ops[i].val = heap.Address(0x800000 + id<<16 + i*8)
		}
	}
	return ops
}

// hmDiffResult is everything a header-map run decides.
type hmDiffResult struct {
	now      memsim.Time
	answers  [][]heap.Address // per worker, per operation
	entries  [][2]uint64      // key, value of every map entry
	used     int64
	dram     memsim.DeviceStats
	overflow int // Puts the bounded probe turned away
	waited   int // probes that found their entry still in flight
}

// runHMDiff runs the sequences on 8 workers, either through the blocking
// Put/Get drivers or by stepping the probe states directly under Steps.
func runHMDiff(t *testing.T, eager, steps bool) hmDiffResult {
	t.Helper()
	const workers, perWorker = 8, 60
	h, m := hmTestHeapSched(t, eager)
	hm, err := NewHeaderMap(h, 64*16)
	if err != nil {
		t.Fatal(err)
	}
	res := hmDiffResult{answers: make([][]heap.Address, workers)}
	m.Run(workers, func(w *memsim.Worker) {
		ops := hmDiffOps(w.ID(), perWorker)
		ans := make([]heap.Address, 0, perWorker)
		defer func() { res.answers[w.ID()] = ans }()
		record := func(op hmDiffOp, v heap.Address) {
			if op.val != 0 && v == 0 {
				res.overflow++
			}
			ans = append(ans, v)
		}
		if !steps {
			for _, op := range ops {
				if op.val != 0 {
					record(op, hm.Put(w, op.key, op.val))
				} else {
					record(op, hm.Get(w, op.key))
				}
			}
			return
		}
		var p hmProbe
		started := false
		for len(ans) < perWorker {
			w.Steps(func(w *memsim.Worker) bool {
				for {
					if !started {
						if len(ans) == perWorker {
							return false
						}
						op := ops[len(ans)]
						p, started = hm.probe(op.key, op.val, op.val != 0), true
					}
					if p.step(w) {
						return true
					}
					if p.waiting {
						return false // spin on the owner's coroutine
					}
					record(ops[len(ans)], p.result)
					started = false
				}
			})
			if started {
				res.waited++
				record(ops[len(ans)], hm.spinValue(w, p.idx))
				started = false
			}
		}
	})
	for i := 0; i < hm.Entries(); i++ {
		k, v := hm.PeekEntry(i)
		res.entries = append(res.entries, [2]uint64{k, v})
	}
	res.now, res.used, res.dram = m.Now(), hm.Used(), m.DRAM.Stats()
	return res
}

// TestHeaderMapStepsMatchDrivers is the differential test of the
// header map's two faces: the probe state machine stepped directly (as the
// drain machine does, with peers running each other's steps) against the
// blocking Put/Get drivers, over the same seeded contended sequence.
// Returned addresses, map contents, occupancy and device traffic must all
// agree, in both scheduling modes.
func TestHeaderMapStepsMatchDrivers(t *testing.T) {
	want := runHMDiff(t, true, false)
	if want.overflow == 0 {
		t.Error("no Put overflowed the probe bound — the sequence exercises nothing")
	}
	if want.used == 0 || want.used == int64(len(want.entries)) {
		t.Errorf("used = %d of %d entries — want a partly filled map", want.used, len(want.entries))
	}
	for _, eager := range []bool{true, false} {
		for _, steps := range []bool{false, true} {
			got := runHMDiff(t, eager, steps)
			if steps && got.waited == 0 {
				t.Errorf("eager=%v: no stepped probe found its entry in flight", eager)
			}
			got.waited = 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("eager=%v steps=%v diverged from the blocking drivers under eager-yield:\n got %+v\nwant %+v", eager, steps, got, want)
			}
		}
	}
}
