package workload

import (
	"fmt"

	"nvmgc/internal/workload/generator"
)

// This file is the scenario half of the workload engine: a Core scenario
// produces a deterministic keyed operation stream (YCSB-style
// insert/read/update/scan/read-modify-write over a growing key
// population); the keyedMutator in keyed.go executes that stream against
// the simulated heap so the *charged memory traffic* — allocation
// volume, index write barriers, row reads — follows the access skew,
// not just the op counts.

// OpKind enumerates keyed operations.
type OpKind uint8

const (
	// OpRead reads the whole row of one key.
	OpRead OpKind = iota
	// OpUpdate writes a fresh row version for one key (the previous
	// version becomes garbage — this is where skew turns into GC load).
	OpUpdate
	// OpInsert adds a new key to the population.
	OpInsert
	// OpScan reads Span consecutive keys' rows.
	OpScan
	// OpRMW reads one key's row, then writes a fresh version.
	OpRMW
)

// String names the op kind for reports.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpInsert:
		return "insert"
	case OpScan:
		return "scan"
	case OpRMW:
		return "rmw"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Op is one keyed operation. Key is a logical key number (the engine
// maps it onto the heap population); for OpInsert it is the freshly
// assigned key. Span is the scan length.
type Op struct {
	Kind OpKind
	Key  int64
	Span int64
}

// Env is the shared per-run state between a Core scenario and the engine.
// Init fills the population fields; the engine provides the rest.
type Env struct {
	// Engine-provided before Init.
	Seed      uint64
	Scale     float64 // the run's workload scale (applied to Ops by the engine)
	HeapBytes int64   // for scenarios that size populations relative to the heap

	// Scenario-provided by Init.
	Records  int64 // initial population loaded before the op stream starts
	Capacity int64 // live-window cap: inserts beyond it evict the oldest key
	Ops      int64 // op budget at Scale 1 (the engine scales it)
	Routines int   // client routines the op stream round-robins over

	// Engine-provided after Init: the shared insert-key sequence. Last()
	// is the newest *completed* insert, so recency distributions never
	// select a key whose row is not on the heap yet.
	Keys *generator.AcknowledgedCounter
}

// KeyCount returns how many keys have ever been handed out.
func (e *Env) KeyCount() int64 { return e.Keys.Last() + 1 }

// WindowSize returns the current live-window width: the number of keys
// request distributions may select from.
func (e *Env) WindowSize() int64 {
	n := e.KeyCount()
	if n > e.Capacity {
		n = e.Capacity
	}
	if n < 1 {
		n = 1
	}
	return n
}

// WindowStart returns the oldest live key.
func (e *Env) WindowStart() int64 {
	if n := e.KeyCount(); n > e.Capacity {
		return n - e.Capacity
	}
	return 0
}

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

// Core is the YCSB core-workload scenario: a proportioned
// read/update/insert/scan/RMW mix over a keyed population with a
// pluggable request distribution and a per-key object-size
// distribution. The zero value is invalid; start from CoreDefaults.
type Core struct {
	// Operation mix (must sum to 1).
	ReadProp, UpdateProp, InsertProp, ScanProp, RMWProp float64

	// Request is the key-popularity distribution (see RequestDists).
	Request string
	// Theta is the zipfian skew for Request zipfian/scrambled/latest.
	Theta float64
	// HotsetFrac/HotOpnFrac parameterize Request hotspot.
	HotsetFrac, HotOpnFrac float64
	// ExpPercentile/ExpFrac parameterize Request exponential:
	// ExpPercentile percent of draws reach back at most ExpFrac of the
	// live window.
	ExpPercentile, ExpFrac float64

	// MaxScanLen bounds OpScan spans (drawn uniformly from [1, MaxScanLen]).
	MaxScanLen int64

	// Population and budget.
	Records  int64 // initial load
	Capacity int64 // live-window cap; 0 means Records
	Ops      int64 // op budget at Scale 1
	Routines int   // client routines; 0 means 1

	// Per-key object size in words, drawn deterministically per key so a
	// key's row keeps its size across updates. With SizeValues/SizeWeights
	// set, sizes follow that histogram; otherwise uniform in
	// [MinWords, MaxWords].
	MinWords, MaxWords     int64
	SizeValues, SizeWeight []int64

	// OpCPUNs is the mutator compute charged per operation (keeps app
	// time honest for read-only mixes).
	OpCPUNs int64
}

// CoreDefaults returns the baseline core scenario: zipfian requests at
// the standard skew over a 4096-key population, 48k ops, 16–128-word
// rows — sized so update-heavy mixes cycle eden several times on the
// bench harness heap.
func CoreDefaults() Core {
	return Core{
		ReadProp: 1,
		Request:  DistZipfian, Theta: generator.ZipfianConstant,
		HotsetFrac: 0.2, HotOpnFrac: 0.8,
		ExpPercentile: 95, ExpFrac: 0.5,
		MaxScanLen: 64,
		Records:    4096, Ops: 48_000, Routines: 1,
		MinWords: 16, MaxWords: 128,
		OpCPUNs: 400,
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
	found := false
	for _, d := range RequestDists() {
		if c.Request == d {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("workload: unknown request distribution %q (want one of %v)", c.Request, RequestDists())
	}
	needsTheta := c.Request == DistZipfian
	if needsTheta && (c.Theta <= 0 || c.Theta >= 1) {
		return fmt.Errorf("workload: zipfian theta %g outside (0, 1)", c.Theta)
	}
	if c.Records < 1 {
		return fmt.Errorf("workload: core needs Records >= 1, got %d", c.Records)
	}
	if c.Capacity != 0 && c.Capacity < c.Records {
		return fmt.Errorf("workload: core Capacity %d below Records %d", c.Capacity, c.Records)
	}
	if c.Ops < 1 {
		return fmt.Errorf("workload: core needs Ops >= 1, got %d", c.Ops)
	}
	if c.MinWords < 4 || c.MaxWords < c.MinWords {
		return fmt.Errorf("workload: core row size range [%d, %d] invalid (min 4 words)", c.MinWords, c.MaxWords)
	}
	if c.ScanProp > 0 && c.MaxScanLen < 1 {
		return fmt.Errorf("workload: core scans need MaxScanLen >= 1")
	}
	if len(c.SizeValues) != len(c.SizeWeight) {
		return fmt.Errorf("workload: core size histogram values/weights mismatch: %d/%d",
			len(c.SizeValues), len(c.SizeWeight))
	}
	return nil
}

// Init fills the Env's population parameters and validates the
// configuration.
func (c *Core) Init(e *Env) error {
	if err := c.Validate(); err != nil {
		return err
	}
	e.Records = c.Records
	e.Capacity = c.Capacity
	if e.Capacity == 0 {
		e.Capacity = c.Records
	}
	e.Ops = c.Ops
	e.Routines = c.Routines
	if e.Routines <= 0 {
		e.Routines = 1
	}
	return nil
}

// routineStream namespaces a routine's RNG streams off the run seed.
func routineStream(id, lane int) uint64 {
	return uint64(id)<<8 | uint64(lane) | 0x5ce4a410<<32
}

// coreRoutine is one client routine's generator state. It owns its RNGs,
// so the op stream is independent of how routines interleave, and NextOp
// reads only them and the Env's key counter — never heap or collector
// state — so the stream is identical under every collector configuration.
type coreRoutine struct {
	c   *Core
	mix *generator.Uniform // op-mix selector (drawn as millionths)

	uni       *generator.Uniform
	zipf      *generator.Zipfian
	scrambled *generator.ScrambledZipfian
	hot       *generator.Hotspot
	exp       *generator.Exponential
	latest    *generator.Latest

	scanLen *generator.Uniform
}

// NewRoutine builds routine id's generator state (yabf's InitRoutine).
func (c *Core) NewRoutine(e *Env, id int) (*coreRoutine, error) {
	r := &coreRoutine{c: c}
	var err error
	fail := func(g error) error {
		return fmt.Errorf("workload: core routine %d: %w", id, g)
	}
	if r.mix, err = generator.NewUniform(generator.NewRand(e.Seed, routineStream(id, 0)), 0, 999_999); err != nil {
		return nil, fail(err)
	}
	rng := generator.NewRand(e.Seed, routineStream(id, 1))
	switch c.Request {
	case DistUniform:
		r.uni, err = generator.NewUniform(rng, 0, e.WindowSize()-1)
	case DistZipfian:
		r.zipf, err = generator.NewZipfian(rng, 0, e.WindowSize()-1, c.Theta)
	case DistScrambled:
		r.scrambled, err = generator.NewScrambledZipfian(rng, 0, e.WindowSize()-1)
	case DistHotspot:
		r.hot, err = generator.NewHotspot(rng, 0, e.WindowSize()-1, c.HotsetFrac, c.HotOpnFrac)
	case DistExponential:
		r.exp, err = generator.NewExponential(rng, c.ExpPercentile, float64(e.Capacity), c.ExpFrac)
	case DistLatest:
		r.latest, err = generator.NewLatest(rng, e.Keys)
	}
	if err != nil {
		return nil, fail(err)
	}
	if c.ScanProp > 0 {
		if r.scanLen, err = generator.NewUniform(generator.NewRand(e.Seed, routineStream(id, 2)), 1, c.MaxScanLen); err != nil {
			return nil, fail(err)
		}
	}
	return r, nil
}

// chooseKey draws one live key under the routine's request distribution.
func (r *coreRoutine) chooseKey(e *Env) int64 {
	domain := e.WindowSize()
	start := e.WindowStart()
	switch r.c.Request {
	case DistUniform:
		r.uni.SetRange(0, domain-1)
		return start + r.uni.Next()
	case DistZipfian:
		// Rank 0 (hottest) pins to the oldest live key: stable hot keys
		// for fixed populations, hot-set drift once inserts slide the
		// window — both are access patterns the sweep wants.
		r.zipf.ForItems(domain)
		return start + r.zipf.Next()
	case DistScrambled:
		r.scrambled.ForItems(domain)
		return start + r.scrambled.Next()
	case DistHotspot:
		r.hot.SetRange(0, domain-1)
		return start + r.hot.Next()
	case DistExponential:
		// Exponential distance back from the newest key (YCSB's reading).
		back := r.exp.Next() % domain
		return e.Keys.Last() - back
	case DistLatest:
		k := r.latest.Next()
		if k < start { // zipfian tail past the live window
			k = start
		}
		return k
	}
	panic("workload: unreachable request distribution " + r.c.Request)
}

// NextOp draws the routine's next operation.
func (r *coreRoutine) NextOp(e *Env) Op {
	x := float64(r.mix.Next()) / 1_000_000
	c := r.c
	switch {
	case x < c.ReadProp:
		return Op{Kind: OpRead, Key: r.chooseKey(e)}
	case x < c.ReadProp+c.UpdateProp:
		return Op{Kind: OpUpdate, Key: r.chooseKey(e)}
	case x < c.ReadProp+c.UpdateProp+c.InsertProp:
		return Op{Kind: OpInsert, Key: e.Keys.Next()}
	case x < c.ReadProp+c.UpdateProp+c.InsertProp+c.ScanProp:
		return Op{Kind: OpScan, Key: r.chooseKey(e), Span: r.scanLen.Next()}
	default:
		return Op{Kind: OpRMW, Key: r.chooseKey(e)}
	}
}

// rowWords returns the per-key row size in words: a deterministic draw
// from the configured size distribution keyed on the key itself, so a
// row keeps its size across updates and re-inserts.
func (c *Core) rowWords(seed uint64, key int64) int64 {
	h := generator.FNVHash64(uint64(key) ^ seed*0x9E3779B97F4A7C15)
	var w int64
	if len(c.SizeValues) > 0 {
		var total int64
		for _, wt := range c.SizeWeight {
			total += wt
		}
		pick := int64(h % uint64(total))
		for i, wt := range c.SizeWeight {
			if pick < wt {
				w = c.SizeValues[i]
				break
			}
			pick -= wt
		}
	} else {
		w = c.MinWords + int64(h%uint64(c.MaxWords-c.MinWords+1))
	}
	if w < 4 {
		w = 4
	}
	if w%2 != 0 {
		w++
	}
	return w
}
