package gc

import (
	"testing"

	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

// TestTrafficBreakdown is a calibration aid: it builds a graph with no
// charged traffic (cold LLC) and reports NVM traffic of a single GC under
// each configuration. The NVM-aware configurations must strictly reduce
// NVM writeback traffic — that is the paper's core mechanism.
func TestTrafficBreakdown(t *testing.T) {
	build := func() (*heap.Heap, *memsim.Machine) {
		h, m := testEnv(t)
		node, _ := h.Klasses.Define("node", 6, []int32{2, 3})
		m.Run(1, func(w *memsim.Worker) {
			var prev heap.Address
			count := 0
			for {
				// Uncharged allocation and linking: NVM lines stay clean
				// so the collection's own traffic is isolated.
				a, ok := h.AllocateEden(nil, node, 6)
				if !ok {
					break
				}
				if prev != 0 && count%12 != 0 {
					h.Poke(heap.SlotAddr(a, 2), prev)
				}
				if count%4 == 0 {
					// Root slots live in DRAM aux space; charging them
					// does not dirty NVM lines.
					if _, ok := h.Roots.Add(w, a); !ok {
						break
					}
				}
				prev = a
				count++
			}
		})
		return h, m
	}
	type row struct {
		name string
		opt  Options
	}
	wc := WithWriteCache()
	wc.WriteCacheBytes = -1 // ample budget: isolate the mechanism
	all := Optimized()
	all.WriteCacheBytes = -1
	rows := []row{
		{"vanilla", Vanilla()},
		{"writecache", wc},
		{"all", all},
	}
	type out struct {
		wb, nt, rd int64
		pause      memsim.Time
	}
	results := map[string]out{}
	for _, r := range rows {
		h, _ := build()
		col, err := NewG1(h, r.opt)
		if err != nil {
			t.Fatal(err)
		}
		s, err := col.Collect(16)
		if err != nil {
			t.Fatal(err)
		}
		results[r.name] = out{wb: s.NVM.WritebackBytes, nt: s.NVM.NTBytes, rd: s.NVM.ReadBytes, pause: s.Pause}
		t.Logf("%-10s pause %8.3fms  NVM read %6.2f MiB  wb %6.2f MiB  nt %6.2f MiB  copied %d",
			r.name, float64(s.Pause)/1e6, mib(s.NVM.ReadBytes), mib(s.NVM.WritebackBytes), mib(s.NVM.NTBytes), s.ObjectsCopied)
	}
	if results["writecache"].wb >= results["vanilla"].wb {
		t.Errorf("write cache must reduce NVM writebacks: %v vs %v",
			results["writecache"].wb, results["vanilla"].wb)
	}
	if results["all"].wb >= results["writecache"].wb {
		t.Errorf("header map must further reduce NVM writebacks: %v vs %v",
			results["all"].wb, results["writecache"].wb)
	}
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }
