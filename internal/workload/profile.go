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

// validAppProfile sanity-checks a profile (used by tests and the table).
func (p Profile) valid() bool {
	return p.Name != "" &&
		p.ObjWords >= 4 && p.ObjWords%2 == 0 &&
		p.RefsPerObj >= 1 && int64(p.RefsPerObj) <= p.ObjWords-2 &&
		p.ChainLen >= 1 &&
		p.PrimArrayFrac >= 0 && p.RefArrayFrac >= 0 &&
		p.PrimArrayFrac+p.RefArrayFrac < 1 &&
		p.Survival >= 0 && p.Survival <= 0.95 &&
		p.ChurnDrop >= 0 && p.ChurnDrop <= 1 &&
		p.HolderFrac >= 0 && p.HolderFrac <= 1 &&
		p.EdenFills > 0
}
