package main

import (
	"nvmgc/internal/gc"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

// anyCollector is everything *gc.G1 and *gc.PS offer beyond
// gc.Collector. Both workload runners find mixed and full collection by
// type assertion on the collector they are handed, so a wrapper that only
// embeds gc.Collector silently turns a MixedGCEvery run into a young-only
// one. timedCollector therefore forwards every method by name.
type anyCollector interface {
	gc.Collector
	CollectMixed(threads, maxOldRegions int) (gc.CollectionStats, error)
	CollectFull(threads int) (gc.CollectionStats, error)
	HeaderMap() *gc.HeaderMap
	Options() gc.Options
	Totals() gc.Totals
}

// timedCollector spans every collection of the real collector from
// outside: host time per collection, and the charged simulator
// operations the collection issued.
type timedCollector struct {
	inner anyCollector
	rec   *recorder

	hostNs []int64 // one per collection, in order
	ops    int64   // charged simulator ops issued inside collections
}

func (t *timedCollector) Name() string                      { return t.inner.Name() }
func (t *timedCollector) Heap() *heap.Heap                  { return t.inner.Heap() }
func (t *timedCollector) Collections() []gc.CollectionStats { return t.inner.Collections() }
func (t *timedCollector) HeaderMap() *gc.HeaderMap          { return t.inner.HeaderMap() }
func (t *timedCollector) Options() gc.Options               { return t.inner.Options() }
func (t *timedCollector) Totals() gc.Totals                 { return t.inner.Totals() }

func (t *timedCollector) Collect(threads int) (gc.CollectionStats, error) {
	return t.timed("gc.Collect", func() (gc.CollectionStats, error) { return t.inner.Collect(threads) })
}

func (t *timedCollector) CollectMixed(threads, maxOldRegions int) (gc.CollectionStats, error) {
	return t.timed("gc.CollectMixed", func() (gc.CollectionStats, error) {
		return t.inner.CollectMixed(threads, maxOldRegions)
	})
}

func (t *timedCollector) CollectFull(threads int) (gc.CollectionStats, error) {
	return t.timed("gc.CollectFull", func() (gc.CollectionStats, error) { return t.inner.CollectFull(threads) })
}

func (t *timedCollector) timed(name string, collect func() (gc.CollectionStats, error)) (gc.CollectionStats, error) {
	m := t.inner.Heap().Machine()
	ops0 := chargedOps(m)
	id := t.rec.begin(name)
	s, err := collect()
	ops := chargedOps(m) - ops0
	d := t.rec.end(id, map[string]int64{
		"objects_copied": s.ObjectsCopied, "slots": s.SlotsProcessed,
		"virt_pause_ns": s.Pause, "sim_ops": ops,
	})
	t.hostNs = append(t.hostNs, d.Nanoseconds())
	t.ops += ops
	return s, err
}

// chargedOps counts the simulator operations a machine has charged so
// far: every device read and write op of every tier plus every LLC probe
// (hit or miss). This is the "op" of sim_ops_per_s.
func chargedOps(m *memsim.Machine) int64 {
	var n int64
	for _, t := range m.Topology().Tiers() {
		s := t.Stats()
		n += s.ReadOps + s.WriteOps
	}
	c := m.LLC.Stats()
	return n + c.Hits + c.Misses
}
