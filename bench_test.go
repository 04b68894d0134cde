// Package nvmgc's root benchmark suite: one testing.B benchmark per table
// and figure of the paper's evaluation. Each iteration regenerates the
// artifact at a reduced scale and reports the experiment's headline
// quantities as custom benchmark metrics (virtual-time results are
// deterministic; host ns/op only reflects simulation cost).
//
// Run everything:  go test -bench=. -benchmem
// One figure:      go test -bench=BenchmarkFig5
// Full fidelity:   use cmd/nvmbench with -scale 1.
package nvmgc_test

import (
	"fmt"
	"strconv"
	"testing"

	"nvmgc/internal/bench"
	"nvmgc/internal/gc"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
	"nvmgc/internal/workload"
)

func benchParams() bench.Params {
	return bench.Params{Scale: 0.2, Quick: true, Seed: 1}
}

// runExperiment executes one registered experiment per iteration.
func runExperiment(b *testing.B, id string) *bench.Report {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var rep *bench.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = e.Run(benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	return rep
}

// noteMetric parses "key: 1.23x ..." style notes into benchmark metrics.
func noteMetric(b *testing.B, rep *bench.Report, idx int, unit string) {
	b.Helper()
	if idx >= len(rep.Notes) {
		return
	}
	note := rep.Notes[idx]
	// Extract the first float in the note.
	for i := 0; i < len(note); i++ {
		if note[i] >= '0' && note[i] <= '9' {
			j := i
			for j < len(note) && (note[j] == '.' || (note[j] >= '0' && note[j] <= '9')) {
				j++
			}
			if v, err := strconv.ParseFloat(note[i:j], 64); err == nil {
				b.ReportMetric(v, unit)
			}
			return
		}
	}
}

func BenchmarkFig1(b *testing.B)  { noteMetric(b, runExperiment(b, "fig1"), 0, "gc-slowdown-x") }
func BenchmarkFig2(b *testing.B)  { runExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)  { runExperiment(b, "fig3") }
func BenchmarkFig5(b *testing.B)  { noteMetric(b, runExperiment(b, "fig5"), 0, "apps-improved") }
func BenchmarkFig6(b *testing.B)  { noteMetric(b, runExperiment(b, "fig6"), 0, "bw-gain-%") }
func BenchmarkFig7(b *testing.B)  { runExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)  { runExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)  { runExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B) { noteMetric(b, runExperiment(b, "fig11"), 0, "async-cost-%") }
func BenchmarkFig12(b *testing.B) { runExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B) { runExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B) { noteMetric(b, runExperiment(b, "fig14"), 0, "ps-speedup-x") }

func BenchmarkPrefetchTable(b *testing.B) {
	noteMetric(b, runExperiment(b, "tab-prefetch"), 0, "dram-gain-x")
}

// BenchmarkMachineRun measures the scheduler's handoff cost: 16 workers
// issuing device-bound loads/stores under the min-virtual-time scheduler.
// This is the microbenchmark for the event-horizon lookahead.
func BenchmarkMachineRun(b *testing.B) {
	const workers, opsPerWorker = 16, 200
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := memsim.NewMachine(memsim.DefaultConfig())
		m.Run(workers, func(w *memsim.Worker) {
			base := uint64(w.ID()) << 22
			for j := 0; j < opsPerWorker; j++ {
				w.Read(m.NVM, base+uint64(j*4096), 256, false)
				w.Write(m.NVM, base+uint64(j*4096), 16, false)
			}
		})
	}
	b.ReportMetric(float64(b.N*workers*opsPerWorker*2), "sim-ops")
}

// BenchmarkCacheTouchRange measures the LLC probe path: a hit-heavy
// working set (the all-resident fast path) plus a miss/eviction tail.
func BenchmarkCacheTouchRange(b *testing.B) {
	m := memsim.NewMachine(memsim.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(1, func(w *memsim.Worker) {
			for j := 0; j < 64; j++ {
				w.Read(m.NVM, uint64(j)*256, 256, true) // resident after warm-up
			}
			w.Read(m.NVM, uint64(1<<24)+uint64(i%1024)*4096, 4096, true) // misses
		})
	}
}

// BenchmarkYoungGC measures the host-side cost of one full young
// collection under the optimized configuration (eden fill + collect).
func BenchmarkYoungGC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := memsim.NewMachine(memsim.DefaultConfig())
		hc := heap.DefaultConfig()
		hc.HeapRegions = 256
		hc.EdenRegions = 24
		h, err := heap.New(m, hc)
		if err != nil {
			b.Fatal(err)
		}
		col, err := gc.NewG1(h, gc.Optimized())
		if err != nil {
			b.Fatal(err)
		}
		node, _ := h.Klasses.Define(fmt.Sprintf("yg%d", i), 6, []int32{2, 3})
		m.Run(1, func(w *memsim.Worker) {
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
					h.Roots.Add(w, a)
				}
				prev = a
			}
		})
		if _, err := col.Collect(16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMixedGC measures the host-side cost of a mixed collection:
// an old generation seeded with half-garbage regions plus a full eden,
// collected with concurrent-mark liveness and old-region evacuation in
// the collection set (CollectMixed = mark + young + old cset).
func BenchmarkMixedGC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := memsim.NewMachine(memsim.DefaultConfig())
		hc := heap.DefaultConfig()
		hc.HeapRegions = 256
		hc.EdenRegions = 24
		h, err := heap.New(m, hc)
		if err != nil {
			b.Fatal(err)
		}
		col, err := gc.NewG1(h, gc.Optimized())
		if err != nil {
			b.Fatal(err)
		}
		node, _ := h.Klasses.Define(fmt.Sprintf("mg%d", i), 6, []int32{2, 3})
		m.Run(1, func(w *memsim.Worker) {
			// Old space: alternate live (rooted) and garbage objects so the
			// mixed cset has sparse regions worth evacuating.
			for j := 0; j < 20000; j++ {
				a, ok := h.AllocateOld(w, node, 6)
				if !ok {
					break
				}
				if j%2 == 0 {
					h.Roots.Add(w, a)
				}
			}
			// Plus a full eden, as in BenchmarkYoungGC.
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
					h.Roots.Add(w, a)
				}
				prev = a
			}
		})
		if _, err := col.CollectMixed(16, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvacuateHot isolates the evacuation hot path: the eden fill
// that builds the collection set runs outside the timer, so each timed
// iteration is exactly one parallel copy-and-traverse pass over a
// prebuilt cset (compare BenchmarkYoungGC, which times fill + collect).
func BenchmarkEvacuateHot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := memsim.NewMachine(memsim.DefaultConfig())
		hc := heap.DefaultConfig()
		hc.HeapRegions = 256
		hc.EdenRegions = 24
		h, err := heap.New(m, hc)
		if err != nil {
			b.Fatal(err)
		}
		col, err := gc.NewG1(h, gc.Optimized())
		if err != nil {
			b.Fatal(err)
		}
		node, _ := h.Klasses.Define(fmt.Sprintf("ev%d", i), 6, []int32{2, 3})
		m.Run(1, func(w *memsim.Worker) {
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
					h.Roots.Add(w, a)
				}
				prev = a
			}
		})
		b.StartTimer()
		if _, err := col.Collect(16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectOnce measures the host-side cost of simulating a single
// young collection per configuration — the simulator's own performance.
func BenchmarkCollectOnce(b *testing.B) {
	for _, cfg := range []struct {
		name string
		opt  gc.Options
	}{
		{"vanilla", gc.Vanilla()},
		{"writecache", gc.WithWriteCache()},
		{"all", gc.Optimized()},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var pause memsim.Time
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := memsim.NewMachine(memsim.DefaultConfig())
				hc := heap.DefaultConfig()
				hc.HeapRegions = 512
				hc.EdenRegions = 96
				h, err := heap.New(m, hc)
				if err != nil {
					b.Fatal(err)
				}
				col, err := gc.NewG1(h, cfg.opt)
				if err != nil {
					b.Fatal(err)
				}
				node, _ := h.Klasses.Define(fmt.Sprintf("n%d", i), 6, []int32{2, 3})
				m.Run(1, func(w *memsim.Worker) {
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
							h.Roots.Add(w, a)
						}
						prev = a
					}
				})
				b.StartTimer()
				s, err := col.Collect(16)
				if err != nil {
					b.Fatal(err)
				}
				pause += s.Pause
			}
			b.ReportMetric(float64(pause)/float64(b.N)/1e6, "virtual-ms/gc")
		})
	}
}

// BenchmarkMutatorThroughput measures host-side simulation speed of the
// mutator (allocation + app work), in simulated MiB allocated per second.
func BenchmarkMutatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := memsim.NewMachine(memsim.DefaultConfig())
		h, err := heap.New(m, heap.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		col, err := gc.NewG1(h, gc.Optimized())
		if err != nil {
			b.Fatal(err)
		}
		spec, err := workload.ScenarioByName("movie-lens")
		if err != nil {
			b.Fatal(err)
		}
		r, err := spec.NewRunner(col, workload.Config{GCThreads: 8, Scale: 0.2})
		if err != nil {
			b.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(res.Allocated)
	}
}
