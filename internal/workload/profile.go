// Package workload models the paper's application suite: 22 Renaissance
// benchmarks and 4 Spark analytics jobs, expressed as memory demographics
// (allocation rate, object sizes, pointer density, survival and churn
// ratios, long-lived working sets, and mutator memory intensity) driving a
// synthetic mutator over the simulated heap.
//
// The absolute parameter values are calibrated so the *relative* behaviour
// matches the paper's characterization: Spark jobs allocate huge volumes
// of small, pointer-rich objects (long GC traversals, large remembered
// sets); naive-bayes copies big primitive arrays (sequential-read-heavy,
// write-intensive GC); akka-uct has few deep chains (load imbalance);
// movie-lens touches memory lightly outside GC; finagle-http, rx-scrabble
// and scala-doku trigger few, short collections.
package workload

import "fmt"

// Profile describes one application's memory demographics. All volume
// parameters are expressed relative to the heap configuration so profiles
// scale with the simulated heap size.
type Profile struct {
	Name  string
	Suite string // "renaissance" or "spark"

	// Object demographics.
	ObjWords       int64   // node object size in words (even, >= 4)
	RefsPerObj     int     // reference slots per node (1 or 2)
	ChainLen       int     // nodes per allocation cluster (traversal depth)
	PrimArrayFrac  float64 // fraction of allocated bytes in primitive arrays
	PrimArrayWords int64   // primitive array size in words
	RefArrayFrac   float64 // fraction of allocated bytes in reference arrays
	RefArrayWords  int64

	// Liveness.
	Survival   float64 // fraction of freshly allocated bytes live at GC
	ChurnDrop  float64 // fraction of 1-epoch-old keepers dropped before GC
	HolderFrac float64 // keepers anchored in old-space holders (vs roots)

	// Long-lived working set, as a fraction of the heap.
	LongLivedFrac float64 // primitive data resident in the old generation
	HolderArrays  int     // old reference arrays anchoring young clusters
	HolderSlots   int64   // slots per holder array

	// Mutator work per KiB allocated.
	CPUNsPerKB     int64   // pure compute
	RandReadsPerKB float64 // random reads over the live object graph
	SeqKBPerKB     float64 // streaming reads over the long-lived data

	// EdenFills is the run length in eden-fulls (≈ young GC count).
	EdenFills float64
}

// Work units the mutator uses internally.
const clusterAppWorkQuantum = 1 << 10 // app work accounted per KiB

// valid names the first field out of range. The work rates are capped far
// above the built-ins' 1500, 10 and 0.6, below clock overflow and day-long runs.
func (p Profile) valid() error {
	for _, c := range []struct {
		ok  bool
		msg string
	}{
		{p.Name != "", "Name: empty"},
		{p.ObjWords >= 4 && p.ObjWords%2 == 0, "ObjWords: want even, >= 4"},
		{p.RefsPerObj >= 1 && int64(p.RefsPerObj) <= p.ObjWords-2, "RefsPerObj: want 1..ObjWords-2"},
		{p.ChainLen >= 1, "ChainLen: want >= 1"},
		{p.PrimArrayFrac >= 0 && p.RefArrayFrac >= 0 && p.PrimArrayFrac+p.RefArrayFrac < 1, "PrimArrayFrac+RefArrayFrac: want [0, 1)"},
		{p.Survival >= 0 && p.Survival <= 0.95, "Survival: want [0, 0.95]"},
		{p.ChurnDrop >= 0 && p.ChurnDrop <= 1, "ChurnDrop: want [0, 1]"},
		{p.HolderFrac >= 0 && p.HolderFrac <= 1, "HolderFrac: want [0, 1]"},
		{p.CPUNsPerKB >= 0 && p.CPUNsPerKB <= 1e6, "CPUNsPerKB: want [0, 1e6]"},
		{p.RandReadsPerKB >= 0 && p.RandReadsPerKB <= 1e3, "RandReadsPerKB: want [0, 1e3]"},
		{p.SeqKBPerKB >= 0 && p.SeqKBPerKB <= 1e3, "SeqKBPerKB: want [0, 1e3]"},
		{p.EdenFills > 0, "EdenFills: want > 0"},
	} {
		if !c.ok {
			return fmt.Errorf("workload: profile %q: %s", p.Name, c.msg)
		}
	}
	return nil
}
