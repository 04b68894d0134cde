package workload

import (
	"fmt"
	"slices"

	"nvmgc/internal/workload/generator"
)

// This file is the scenario half of the workload engine: a Core describes
// a YCSB-style keyed workload (insert/read/update/scan/read-modify-write
// over a growing key population); the keyedMutator in keyed.go draws its
// op stream and executes it against the simulated heap so the *charged
// memory traffic* — allocation volume, index write barriers, row reads —
// follows the access skew, not just the op counts.

// Request-distribution names a Core scenario accepts.
const (
	DistUniform     = "uniform"
	DistZipfian     = "zipfian"
	DistScrambled   = "scrambled"
	DistHotspot     = "hotspot"
	DistExponential = "exponential"
	DistLatest      = "latest"
)

// RequestDists lists the request distributions in stable order.
func RequestDists() []string {
	return []string{DistUniform, DistZipfian, DistScrambled, DistHotspot, DistExponential, DistLatest}
}

// The keyed-scenario parameters no scenario or flag varies.
const (
	// Request hotspot: 20% of the live keys take 80% of the ops.
	hotsetFrac, hotOpnFrac = 0.2, 0.8
	// Request exponential: 95% of draws reach back at most half the
	// live window from the newest key.
	expPercentile, expFrac = 95, 0.5
	// Scan spans are uniform in [1, maxScanLen] keys.
	maxScanLen = 64
	// Row sizes are uniform in [minRowWords, maxRowWords] words, drawn
	// per key.
	minRowWords, maxRowWords = 16, 128
	// opCPUNs is the mutator compute charged per op (keeps app time
	// honest for read-only mixes).
	opCPUNs = 400
)

// Core is the YCSB core-workload scenario: a proportioned
// read/update/insert/scan/RMW mix over a keyed population under one of
// the request distributions. The zero value is invalid; start from
// CoreDefaults.
type Core struct {
	// Operation mix (must sum to 1).
	ReadProp, UpdateProp, InsertProp, ScanProp, RMWProp float64

	// Request is the key-popularity distribution (see RequestDists).
	Request string
	// Theta is the zipfian skew for Request zipfian.
	Theta float64

	// Records is the initial load and the live-window width: inserts
	// past it evict the oldest key.
	Records int64
	// Ops is the op budget at Scale 1.
	Ops int64
}

// CoreDefaults returns the baseline core scenario: zipfian requests at
// the standard skew over a 4096-key population, 48k ops — sized so
// update-heavy mixes cycle eden several times on the bench harness heap.
func CoreDefaults() Core {
	return Core{
		ReadProp: 1,
		Request:  DistZipfian, Theta: generator.ZipfianConstant,
		Records: 4096, Ops: 48_000,
	}
}

// Validate checks the configuration (also called by consumers that
// mutate a registered core via flags, so bad values fail before a run
// starts).
func (c *Core) Validate() error {
	sum := c.ReadProp + c.UpdateProp + c.InsertProp + c.ScanProp + c.RMWProp
	if sum < 0.9999 || sum > 1.0001 {
		return fmt.Errorf("workload: core op mix sums to %g, want 1", sum)
	}
	for _, p := range []float64{c.ReadProp, c.UpdateProp, c.InsertProp, c.ScanProp, c.RMWProp} {
		if p < 0 {
			return fmt.Errorf("workload: negative op proportion in core mix")
		}
	}
	if !slices.Contains(RequestDists(), c.Request) {
		return fmt.Errorf("workload: unknown request distribution %q (want one of %v)", c.Request, RequestDists())
	}
	if c.Request == DistZipfian && (c.Theta <= 0 || c.Theta >= 1) {
		return fmt.Errorf("workload: zipfian theta %g outside (0, 1)", c.Theta)
	}
	if c.Records < 1 {
		return fmt.Errorf("workload: core needs Records >= 1, got %d", c.Records)
	}
	if c.Ops < 1 {
		return fmt.Errorf("workload: core needs Ops >= 1, got %d", c.Ops)
	}
	return nil
}

// rowWords returns key's row size in words: a deterministic draw keyed on
// the key itself, so a row keeps its size across updates and re-inserts.
func rowWords(seed uint64, key int64) int64 {
	h := generator.FNVHash64(uint64(key) ^ seed*0x9E3779B97F4A7C15)
	w := minRowWords + int64(h%(maxRowWords-minRowWords+1))
	if w%2 != 0 {
		w++
	}
	return w
}
