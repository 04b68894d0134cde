package gc

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

// BenchmarkCollectYoung is the per-layer kernel of the collection hot path
// (go test -run '^$' -bench CollectYoung ./internal/gc): one young
// collection of a filled eden on the optimized collector (+all: header
// map, write cache, prefetch), timed alone, with the eden refilled off the
// clock between iterations. Each object has two reference slots, one to its
// list predecessor and one to an object drawn from the ones before it, and
// one in eight is rooted, so the copy, the header-map probes and the
// stealing all run. It reports host ns per charged operation (every device
// read or write and every LLC probe, the op of the repository benchmark's
// sim_ops_per_s) at one worker and at sixteen, the phase that takes the
// gc-pagerank benchmark's host time.
func BenchmarkCollectYoung(b *testing.B) {
	for _, threads := range []int{1, 16} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			m := memsim.NewMachine(memsim.DefaultConfig())
			hc := heap.DefaultConfig()
			hc.HeapRegions = 256
			hc.EdenRegions = 24
			h, err := heap.New(m, hc)
			if err != nil {
				b.Fatal(err)
			}
			col, err := NewG1(h, Optimized())
			if err != nil {
				b.Fatal(err)
			}
			node, _ := h.Klasses.Define("node", 6, []int32{2, 3})
			rng := rand.New(rand.NewPCG(1, 2))
			var rootSlots []heap.Address
			var objs []heap.Address
			fill := func() {
				m.Run(1, func(w *memsim.Worker) {
					for _, s := range rootSlots {
						h.Roots.Clear(w, s)
					}
					rootSlots, objs = rootSlots[:0], objs[:0]
					for {
						a, ok := h.AllocateEden(w, node, 6)
						if !ok {
							return
						}
						if n := len(objs); n > 0 {
							h.SetRefInit(w, a, 2, objs[n-1])
							h.SetRefInit(w, a, 3, objs[rng.IntN(n)])
						}
						if len(objs)%8 == 0 {
							if s, ok := h.Roots.Add(w, a); ok {
								rootSlots = append(rootSlots, s)
							}
						}
						objs = append(objs, a)
					}
				})
			}
			var ops int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fill()
				ops0 := chargedOps(m)
				b.StartTimer()
				if _, err := col.Collect(threads); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				ops += chargedOps(m) - ops0
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/charged-op")
			b.ReportMetric(float64(ops)/float64(b.N), "charged-ops/op")
		})
	}
}

// chargedOps counts the operations a machine has charged so far: device
// reads and writes of every tier plus LLC probes.
func chargedOps(m *memsim.Machine) int64 {
	var n int64
	for _, t := range m.Topology().Tiers() {
		s := t.Stats()
		n += s.ReadOps + s.WriteOps
	}
	c := m.LLC.Stats()
	return n + c.Hits + c.Misses
}
