package gc

import (
	"testing"

	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

// TestYoungGCSteadyStateAllocs pins the host-side heap allocations of a
// steady-state young collection. The cycleArena reuses every piece of GC
// scratch (work stacks, destination tables, root-slot buffers, the cset
// buffer) across cycles, so after warm-up a collection's allocation count
// is a small constant — per-phase scheduler state (one coroutine per
// simulated worker) and stats records — independent of how many objects
// it copies. A regression that reintroduces per-object or per-region
// allocation on the copy path (tens of thousands of objects per cycle
// here) overshoots the bound below by orders of magnitude; the count
// itself repeats exactly from run to run.
func TestYoungGCSteadyStateAllocs(t *testing.T) {
	m := memsim.NewMachine(memsim.DefaultConfig())
	hc := heap.DefaultConfig()
	hc.HeapRegions = 256
	hc.EdenRegions = 24
	h, err := heap.New(m, hc)
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewG1(h, Optimized())
	if err != nil {
		t.Fatal(err)
	}
	node, _ := h.Klasses.Define("steady", 6, []int32{2, 3})

	// One mutator+GC cycle: drop the previous cycle's roots (its survivors
	// become garbage, keeping the heap bounded), refill eden with a rooted
	// list, and run one parallel young collection.
	var rootSlots []heap.Address
	cycle := func() {
		m.Run(1, func(w *memsim.Worker) {
			for _, s := range rootSlots {
				h.Roots.Clear(w, s)
			}
			rootSlots = rootSlots[:0]
			var prev heap.Address
			for j := 0; ; j++ {
				a, ok := h.AllocateEden(w, node, 6)
				if !ok {
					return
				}
				if prev != 0 {
					h.SetRefInit(w, a, 2, prev)
				}
				if j%8 == 0 {
					if s, ok := h.Roots.Add(w, a); ok {
						rootSlots = append(rootSlots, s)
					}
				}
				prev = a
			}
		})
		if _, err := col.Collect(16); err != nil {
			t.Fatal(err)
		}
	}

	// Warm up until the arena and every reused buffer reach capacity.
	for i := 0; i < 2; i++ {
		cycle()
	}

	avg := testing.AllocsPerRun(3, cycle)
	t.Logf("steady-state young GC: %.0f allocs per cycle", avg)

	// Measured 232 allocs/cycle: 8 per worker for the parallel phase's 16
	// iter.Pull coroutines (7 inside iter.Pull, 1 for the body method
	// value), 30 barrier-wait condition closures, and scheduler, arena
	// and stats records; the copy path itself contributes none for the
	// ~30k objects evacuated per cycle.
	const maxAllocs = 250
	if avg > maxAllocs {
		t.Fatalf("steady-state young collection performs %.0f heap allocations per cycle, want <= %d (arena regression?)", avg, maxAllocs)
	}
}
