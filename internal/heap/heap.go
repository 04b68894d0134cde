// Package heap implements a simulated managed (Java-like) heap: a
// word-addressed address space split into equal-sized regions (as in G1),
// with bump-pointer allocation, two-word object headers carrying
// mark/forwarding state, class descriptors with reference maps, remembered
// sets, and an external root set.
//
// All memory accesses that should cost virtual time are routed through a
// memsim.Worker; uncharged Peek/Poke accessors exist for verification and
// for bulk operations whose cost the caller accounts separately.
package heap

import (
	"fmt"

	"nvmgc/internal/memsim"
)

// Address is a simulated 64-bit address. Object addresses are 8-byte
// aligned.
type Address = uint64

// WordBytes is the size of a heap word.
const WordBytes = 8

// PlacementPolicy declares, per heap area, the name of the memory tier
// (see memsim.Topology) backing it; the zero policy is the paper's NVM
// heap. Empty fields are resolved by withDefaults. Every name must
// resolve against the machine's topology; heap.New rejects unknown tiers.
type PlacementPolicy struct {
	Eden      string // mutator allocation regions
	Survivor  string // to-space survivor regions
	Old       string // tenured regions
	Humongous string // oversized allocations (today placed like Old)
	Cache     string // the GC write cache's scratch regions
	Aux       string // roots, header map, volatile metadata
	Meta      string // the crash-consistency journal area
}

// AllOn places every heap area on the named tier (with "dram", the
// paper's all-DRAM reference heap).
func AllOn(tier string) PlacementPolicy {
	return PlacementPolicy{Eden: tier, Survivor: tier, Old: tier, Humongous: tier, Cache: tier, Aux: tier, Meta: tier}
}

// withDefaults fills empty fields: Humongous follows Old, cache and aux
// go on "dram", and eden, survivor, old and meta on the HeapKind
// device's conventional name.
func (p PlacementPolicy) withDefaults(cfg Config) PlacementPolicy {
	heapTier := "nvm"
	if cfg.HeapKind == memsim.DRAM {
		heapTier = "dram"
	}
	def := func(f *string, v string) {
		if *f == "" {
			*f = v
		}
	}
	def(&p.Eden, heapTier)
	def(&p.Survivor, heapTier)
	def(&p.Old, heapTier)
	def(&p.Humongous, p.Old)
	def(&p.Cache, "dram")
	def(&p.Aux, "dram")
	def(&p.Meta, heapTier)
	return p
}

// Config sizes the simulated heap.
type Config struct {
	RegionBytes  int64 // region size; must be a power of two multiple of 8
	HeapRegions  int   // number of Java-heap regions
	CacheRegions int   // scratch pool used by the GC write cache
	AuxBytes     int64 // area for roots, header map, and metadata

	// MetaBytes sizes a metadata area (after aux) that the GC's
	// crash-consistency journal lives in. 0 (the default) allocates none
	// and changes nothing else.
	MetaBytes int64

	// Placement maps heap areas to memory-tier names. Empty fields are
	// filled by PlacementPolicy.withDefaults.
	Placement PlacementPolicy

	// HeapKind is the deprecated two-tier way of picking the device
	// backing the Java heap, consulted only to fill empty Placement
	// fields. It is the last use of memsim.Kind: benchmarks/sim.go sets
	// it, and both go once that file builds its hosts through placement
	// (ROADMAP item 6(a)).
	HeapKind memsim.Kind

	EdenRegions     int // young-generation eden budget
	SurvivorRegions int // cap on survivor regions per collection

	RootSlots int // capacity of the external root set

	Poison bool // overwrite each region Retire returns to a free pool with a poison pattern
}

// DefaultConfig returns a laptop-scale heap: 1024 x 64 KiB regions (64 MiB
// heap, the paper's 2048-region layout scaled down), a 16 MiB young
// generation, and a cache pool of 1/8 of the heap (the write cache itself
// defaults to 1/32; the pool leaves headroom for the unlimited-cache mode).
func DefaultConfig() Config {
	return Config{
		RegionBytes:     64 << 10,
		HeapRegions:     1024,
		CacheRegions:    128,
		AuxBytes:        16 << 20,
		HeapKind:        memsim.NVM,
		EdenRegions:     192,
		SurvivorRegions: 64,
		RootSlots:       1 << 15,
	}
}

// Heap is the simulated managed heap.
type Heap struct {
	cfg Config
	m   *memsim.Machine

	base       Address
	pages      []*page // the address space; see page
	slab       []page  // pages not yet handed out by touch
	regionMask uint64
	regionLog  uint

	heapStart, heapEnd   Address
	cacheStart, cacheEnd Address
	auxStart, auxEnd     Address
	auxTop               Address
	metaStart, metaEnd   Address

	// Resolved placement: the device behind each heap area (see
	// PlacementPolicy). place is the fully-resolved policy (no empty
	// fields) for reporting.
	place    PlacementPolicy
	edenDev  *memsim.Device
	survDev  *memsim.Device
	oldDev   *memsim.Device
	humoDev  *memsim.Device
	cacheDev *memsim.Device
	auxDev   *memsim.Device
	metaDev  *memsim.Device

	// pd mirrors the machine's persistence domain (nil when disabled);
	// every backing-store mutation of a tracked device is hooked so an
	// injected crash can revert unpersisted lines.
	pd *memsim.PersistDomain

	// inGC marks a collection in progress: regions claimed while set are
	// tagged ClaimedInGC (to-space and cache regions a crash discards).
	inGC bool

	// allocErr records the first allocation-size validation failure
	// (user-reachable via custom workload profiles); see AllocError.
	allocErr error

	regions   []*Region // heap regions then cache regions
	freeHeap  []int     // free heap-region indices (LIFO)
	freeCache []int

	// Struct-of-arrays mirrors of the hot per-region metadata, indexed by
	// region id. The evacuation loop's kind/cset classification and DevOf
	// run once per processed slot; reading one byte (or one pointer) out of
	// a dense array keeps them L1-resident instead of chasing a *Region per
	// query. regionTag packs Kind in the low bits and InCSet as tagInCSet.
	// Region remains the authoritative API; the mirrors are refreshed by
	// syncRegionMeta at the few mutation sites (New, ClaimRegion, Retire,
	// the Begin*Collection family, RollbackCollection) and cross-checked
	// against the region table by RegionMirrorError at every checker
	// boundary.
	regionTag []uint8
	regionDev []*memsim.Device

	Klasses *KlassTable
	Roots   *RootSet
	filler  *Klass

	eden       []*Region // eden regions in allocation order
	edenCur    *Region
	survivors  []*Region // survivor regions from the previous collection
	old        []*Region
	oldCur     *Region // current old-space allocation region (setup/promotion)
	allocBytes int64   // cumulative bytes allocated in eden

	// csetBuf backs the slice Begin*Collection returns, reused across
	// collections so a steady-state GC allocates no collection-set list.
	csetBuf []*Region
}

// page is the unit the address space materialises in: the first nonzero
// store into a page gives it host memory, and a load from one never stored
// to reads 0, so a machine costs host memory for what its run writes, not
// for its size. Pages are carved from slabs of slabPages, so the host sees
// one malloc per 1 MiB as it did when 1 MiB was the unit. The size is
// measured: gc-pagerank's benchmark run allocates 37.9 MB of host memory
// with 4 KiB pages, 42.0 MB with 8 KiB, 50.4 MB with 16 KiB and 53.5 MB with
// 1 MiB, because a 2048-word long-lived array is one header page and three
// that are never stored to.
type page [pageWords]uint64

// PageBytes is the size of a page.
const PageBytes = pageWords * WordBytes

const (
	pageLog   = 9
	pageWords = 1 << pageLog
	pageMask  = pageWords - 1
	slabPages = 256
	// maxSpaceBytes caps base..metaEnd, so the page table New builds has
	// 2^20 entries (8 MB) or fewer and addresses stay below the 2^46 that
	// memsim's line keys hold. maxSizeField bounds each size on its own,
	// so no sum or product of them wraps before the space is checked.
	maxSpaceBytes = 1 << 32
	maxSizeField  = 1 << 40
)

// New creates a heap on the given machine.
func New(m *memsim.Machine, cfg Config) (*Heap, error) {
	if cfg.RegionBytes <= 0 || cfg.RegionBytes%WordBytes != 0 || cfg.RegionBytes&(cfg.RegionBytes-1) != 0 {
		return nil, fmt.Errorf("heap: region size %d must be a power-of-two multiple of %d", cfg.RegionBytes, WordBytes)
	}
	if cfg.HeapRegions <= 0 {
		return nil, fmt.Errorf("heap: need at least one region")
	}
	// Each size is bounded on its own first, so no sum or product below wraps.
	for _, n := range []int64{int64(cfg.HeapRegions), int64(cfg.CacheRegions), int64(cfg.EdenRegions),
		int64(cfg.SurvivorRegions), int64(cfg.RootSlots), cfg.AuxBytes, cfg.MetaBytes} {
		if n < 0 || n > maxSizeField {
			return nil, fmt.Errorf("heap: size %d is outside [0, %d]: %+v", n, int64(maxSizeField), cfg)
		}
	}
	if cfg.AuxBytes%WordBytes != 0 || cfg.MetaBytes%WordBytes != 0 {
		return nil, fmt.Errorf("heap: aux (%d) and meta (%d) bytes must be multiples of %d", cfg.AuxBytes, cfg.MetaBytes, WordBytes)
	}
	if space := float64(cfg.HeapRegions+cfg.CacheRegions)*float64(cfg.RegionBytes) + float64(cfg.AuxBytes+cfg.MetaBytes); space > maxSpaceBytes {
		return nil, fmt.Errorf("heap: a %.0f-byte address space exceeds the %d-byte limit", space, int64(maxSpaceBytes))
	}
	if cfg.EdenRegions+cfg.SurvivorRegions >= cfg.HeapRegions {
		return nil, fmt.Errorf("heap: young generation (%d+%d regions) must leave room in %d regions",
			cfg.EdenRegions, cfg.SurvivorRegions, cfg.HeapRegions)
	}
	h := &Heap{cfg: cfg, m: m, base: 1 << 32, Klasses: NewKlassTable()}
	filler, err := h.Klasses.DefineArray("<filler>", false)
	if err != nil {
		return nil, err
	}
	h.filler = filler
	log := uint(0)
	for 1<<log != cfg.RegionBytes {
		log++
	}
	h.regionLog = log
	h.regionMask = uint64(cfg.RegionBytes - 1)

	h.heapStart = h.base
	h.heapEnd = h.heapStart + Address(cfg.HeapRegions)*Address(cfg.RegionBytes)
	h.cacheStart = h.heapEnd
	h.cacheEnd = h.cacheStart + Address(cfg.CacheRegions)*Address(cfg.RegionBytes)
	h.auxStart = h.cacheEnd
	h.auxEnd = h.auxStart + Address(cfg.AuxBytes)
	h.auxTop = h.auxStart
	h.metaStart = h.auxEnd
	h.metaEnd = h.metaStart + Address(cfg.MetaBytes)
	if err := h.resolvePlacement(); err != nil {
		return nil, err
	}

	h.pages = make([]*page, ((h.metaEnd-h.base)/WordBytes+pageMask)>>pageLog)

	total := cfg.HeapRegions + cfg.CacheRegions
	h.regions = make([]*Region, total)
	h.regionTag = make([]uint8, total)
	h.regionDev = make([]*memsim.Device, total)
	h.freeHeap = make([]int, 0, cfg.HeapRegions)
	h.freeCache = make([]int, 0, cfg.CacheRegions)
	slab := make([]Region, total) // one allocation, not one per region
	for i := 0; i < total; i++ {
		start := h.heapStart + Address(i)*Address(cfg.RegionBytes)
		r := &slab[i]
		*r = Region{
			Index: i,
			Start: start,
			End:   start + Address(cfg.RegionBytes),
			Top:   start,
			Kind:  RegionFree,
		}
		if i < cfg.HeapRegions {
			r.Dev = h.oldDev
			h.freeHeap = append(h.freeHeap, i)
		} else {
			r.Dev = h.cacheDev
			r.CachePool = true
			h.freeCache = append(h.freeCache, i)
		}
		h.regions[i] = r
		h.syncRegionMeta(r)
	}
	// Pop from the end, so reverse for ascending-first allocation order.
	reverseInts(h.freeHeap)
	reverseInts(h.freeCache)

	roots, err := newRootSet(h, cfg.RootSlots)
	if err != nil {
		return nil, err
	}
	h.Roots = roots

	// Hook into the machine's persistence domain (if one was enabled
	// before the heap was built): the domain needs raw accessors to
	// capture and restore line shadows without re-entering these hooks.
	// Every persistent tier the placement touches joins the domain, so
	// e.g. a journal placed on a second NVM tier is crash-tracked exactly
	// like the primary heap device.
	if pd := m.Persist(); pd != nil {
		if h.metaEnd%memsim.LineSize != 0 {
			return nil, fmt.Errorf("heap: the persistence domain tracks whole %d B lines, but the heap ends at %#x", memsim.LineSize, h.metaEnd)
		}
		h.pd = pd
		pd.SetBacking(h.rawPeek, h.rawPoke, h.base, h.metaEnd)
		for _, dev := range []*memsim.Device{
			h.edenDev, h.survDev, h.oldDev, h.humoDev, h.cacheDev, h.auxDev, h.metaDev,
		} {
			if t := m.TierOf(dev); t != nil && t.Persistent() {
				pd.Track(dev)
			}
		}
	}
	return h, nil
}

// resolvePlacement validates the placement policy against the machine's
// topology and binds each heap area to its device.
func (h *Heap) resolvePlacement() error {
	pol := h.cfg.Placement.withDefaults(h.cfg)
	topo := h.m.Topology()
	resolve := func(area, name string) (*memsim.Device, error) {
		if t, ok := topo.Tier(name); ok {
			return t.Device, nil
		}
		// The classic names keep working on any topology through the
		// machine's alias semantics (first volatile / first persistent
		// tier), so the compatibility defaults never force a richer
		// topology to also name tiers "dram" and "nvm".
		switch name {
		case "dram":
			return h.m.DRAM, nil
		case "nvm":
			return h.m.NVM, nil
		}
		return nil, fmt.Errorf("heap: placement: %s on unknown tier %q (topology has: %v)",
			area, name, topo.Names())
	}
	var err error
	if h.edenDev, err = resolve("eden", pol.Eden); err != nil {
		return err
	}
	if h.survDev, err = resolve("survivor", pol.Survivor); err != nil {
		return err
	}
	if h.oldDev, err = resolve("old", pol.Old); err != nil {
		return err
	}
	if h.humoDev, err = resolve("humongous", pol.Humongous); err != nil {
		return err
	}
	if h.cacheDev, err = resolve("cache", pol.Cache); err != nil {
		return err
	}
	if h.auxDev, err = resolve("aux", pol.Aux); err != nil {
		return err
	}
	if h.metaDev, err = resolve("meta", pol.Meta); err != nil {
		return err
	}
	h.place = pol
	return nil
}

// Placement returns the fully-resolved placement policy (no empty
// fields).
func (h *Heap) Placement() PlacementPolicy { return h.place }

// EdenDevice returns the device backing eden regions.
func (h *Heap) EdenDevice() *memsim.Device { return h.edenDev }

// SurvivorDevice returns the device backing survivor regions.
func (h *Heap) SurvivorDevice() *memsim.Device { return h.survDev }

// OldDevice returns the device backing old (and humongous) regions.
func (h *Heap) OldDevice() *memsim.Device { return h.oldDev }

// CacheDevice returns the device backing the GC write cache's scratch
// regions.
func (h *Heap) CacheDevice() *memsim.Device { return h.cacheDev }

// AuxDevice returns the device backing the aux area (roots, header map).
func (h *Heap) AuxDevice() *memsim.Device { return h.auxDev }

func (h *Heap) rawPeek(addr uint64) uint64    { return h.load(h.index(addr)) }
func (h *Heap) rawPoke(addr uint64, v uint64) { h.store(h.index(addr), v) }

func reverseInts(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// Machine returns the machine the heap lives on.
func (h *Heap) Machine() *memsim.Machine { return h.m }

// Config returns the heap's configuration.
func (h *Heap) Config() Config { return h.cfg }

// RegionBytes returns the region size in bytes.
func (h *Heap) RegionBytes() int64 { return h.cfg.RegionBytes }

// HeapBytes returns the Java-heap capacity in bytes.
func (h *Heap) HeapBytes() int64 {
	return int64(h.cfg.HeapRegions) * h.cfg.RegionBytes
}

// AllocatedBytes returns cumulative eden allocation volume.
func (h *Heap) AllocatedBytes() int64 { return h.allocBytes }

// Contains reports whether addr falls inside the heap or cache pool.
func (h *Heap) Contains(addr Address) bool {
	return addr >= h.heapStart && addr < h.cacheEnd
}

// RegionOf returns the region containing addr, or nil for aux addresses.
func (h *Heap) RegionOf(addr Address) *Region {
	if addr < h.heapStart || addr >= h.cacheEnd {
		return nil
	}
	return h.regions[(addr-h.heapStart)>>h.regionLog]
}

// Regions returns all regions (heap regions first, then the cache pool).
func (h *Heap) Regions() []*Region { return h.regions }

// tagInCSet is the InCSet bit of a regionTag entry; the low bits hold the
// RegionKind (which fits in three bits).
const tagInCSet uint8 = 1 << 3

// syncRegionMeta refreshes the struct-of-arrays mirrors from a region
// whose Kind, InCSet, or Dev just changed.
func (h *Heap) syncRegionMeta(r *Region) {
	t := uint8(r.Kind)
	if r.InCSet {
		t |= tagInCSet
	}
	h.regionTag[r.Index] = t
	h.regionDev[r.Index] = r.Dev
}

// RegionIndexOf returns the index of the region containing addr, or -1
// for addresses outside the region space.
func (h *Heap) RegionIndexOf(addr Address) int {
	if addr < h.heapStart || addr >= h.cacheEnd {
		return -1
	}
	return int((addr - h.heapStart) >> h.regionLog)
}

// KindAt returns the kind of the region containing addr — RegionFree for
// addresses outside the region space. It reads the packed region-tag
// array: one byte load instead of a region-table pointer chase, for the
// per-slot classification on the evacuation path.
func (h *Heap) KindAt(addr Address) RegionKind {
	if addr < h.heapStart || addr >= h.cacheEnd {
		return RegionFree
	}
	return RegionKind(h.regionTag[(addr-h.heapStart)>>h.regionLog] &^ tagInCSet)
}

// InCSetAt reports whether addr lies in a collection-set region (false
// outside the region space); like KindAt it is index math on the packed
// tag array.
func (h *Heap) InCSetAt(addr Address) bool {
	if addr < h.heapStart || addr >= h.cacheEnd {
		return false
	}
	return h.regionTag[(addr-h.heapStart)>>h.regionLog]&tagInCSet != 0
}

// RegionMirrorError cross-checks the struct-of-arrays metadata mirrors
// against the authoritative region table and reports the first mismatch
// (verification only; the boundary checker runs it).
func (h *Heap) RegionMirrorError() error {
	for _, r := range h.regions {
		want := uint8(r.Kind)
		if r.InCSet {
			want |= tagInCSet
		}
		if got := h.regionTag[r.Index]; got != want {
			return fmt.Errorf("region %d: tag mirror %#x, want %#x (kind %v incset %v)",
				r.Index, got, want, r.Kind, r.InCSet)
		}
		if got := h.regionDev[r.Index]; got != r.Dev {
			return fmt.Errorf("region %d: device mirror %v, want %v", r.Index, got, r.Dev)
		}
	}
	return nil
}

// DevOf returns the device backing addr, following the placement policy:
// regions carry their own device, the meta area sits on the meta tier,
// and everything else (the aux area) on the aux tier.
func (h *Heap) DevOf(addr Address) *memsim.Device {
	if addr >= h.heapStart && addr < h.cacheEnd {
		return h.regionDev[(addr-h.heapStart)>>h.regionLog]
	}
	if addr >= h.metaStart && addr < h.metaEnd {
		return h.metaDev
	}
	return h.auxDev
}

// MetaBase returns the start of the metadata area (journal space).
func (h *Heap) MetaBase() Address { return h.metaStart }

// MetaBytes returns the size of the metadata area.
func (h *Heap) MetaBytes() int64 { return int64(h.metaEnd - h.metaStart) }

func (h *Heap) index(addr Address) int {
	if addr < h.base || addr >= h.metaEnd {
		panic(fmt.Sprintf("heap: address %#x out of range", addr))
	}
	return int((addr - h.base) / WordBytes)
}

// span is index for a multi-word operation: it checks the end of the
// nWords-word range at addr as well as its start.
func (h *Heap) span(addr Address, nWords int64) int {
	if nWords < 0 || addr < h.base || addr > h.metaEnd || Address(nWords) > (h.metaEnd-addr)/WordBytes {
		panic(fmt.Sprintf("heap: address %#x (+%d words) out of range", addr, nWords))
	}
	return int((addr - h.base) / WordBytes)
}

// load returns word i of the address space: 0 until something is stored.
func (h *Heap) load(i int) uint64 {
	if p := h.pages[i>>pageLog]; p != nil {
		return p[i&pageMask]
	}
	return 0
}

// store sets word i. Storing 0 to a page never stored to is a no-op: the
// word already reads 0.
func (h *Heap) store(i int, v uint64) {
	if p := h.pages[i>>pageLog]; p != nil {
		p[i&pageMask] = v
	} else if v != 0 {
		h.touch(i)[i&pageMask] = v
	}
}

// touch returns word i's page, materialising it on first use.
func (h *Heap) touch(i int) *page {
	if p := h.pages[i>>pageLog]; p != nil {
		return p
	}
	if len(h.slab) == 0 {
		h.slab = make([]page, slabPages)
	}
	p := &h.slab[0]
	h.slab = h.slab[1:]
	h.pages[i>>pageLog] = p
	return p
}

// prefetchWord starts a host-cache fill of the line holding the word at
// addr, so a charged load issued now finds its word in the host cache when
// the step that consumes the operation Peeks it, or CommitCopy moves it.
// Simulated and host memory stall alike: this is the GC's own prefetch
// (paper §4.3) applied to the simulator. It is a hint only: it never
// materialises a page, and an address outside [base, metaEnd) is ignored,
// not a panic.
func (h *Heap) prefetchWord(addr Address) {
	if addr < h.base || addr >= h.metaEnd {
		return
	}
	i := int((addr - h.base) / WordBytes)
	p := h.pages[i>>pageLog]
	if p == nil {
		return
	}
	prefetch(&p[i&pageMask])
}

// fill sets the n words from word i to v, one page-contained run at a
// time. Zero-filling a page never stored to materialises nothing.
func (h *Heap) fill(i, n int, v uint64) {
	for n > 0 {
		off := i & pageMask
		k := min(n, pageWords-off)
		if v != 0 || h.pages[i>>pageLog] != nil {
			run := h.touch(i)[off : off+k]
			for j := range run {
				run[j] = v
			}
		}
		i, n = i+k, n-k
	}
}

// pdStore notifies the persistence domain of a cached store about to be
// applied (shadow capture + fault trigger); no-op when tracking is off.
func (h *Heap) pdStore(addr Address, n int64) {
	if h.pd != nil {
		h.pd.OnStore(h.DevOf(addr), addr, n)
	}
}

// pdStoreQuiet captures shadows for an uncharged (Poke-style) mutation
// without counting it as a store or firing fault triggers.
func (h *Heap) pdStoreQuiet(addr Address, n int64) {
	if h.pd != nil {
		h.pd.OnStoreQuiet(h.DevOf(addr), addr, n)
	}
}

// Peek reads a word without charging virtual time (verification only).
func (h *Heap) Peek(addr Address) uint64 { return h.load(h.index(addr)) }

// Materialised reports whether the page holding addr has host memory, which
// it gets at its first nonzero store (diagnostics; nothing simulated reads it).
func (h *Heap) Materialised(addr Address) bool { return h.pages[h.index(addr)>>pageLog] != nil }

// Poke writes a word without charging virtual time (setup/verification).
func (h *Heap) Poke(addr Address, v uint64) {
	h.pdStoreQuiet(addr, WordBytes)
	h.store(h.index(addr), v)
}

// PokeZero zeroes nWords words at addr without charging virtual time: the
// bulk form of a Poke(…, 0) loop, with one persistence-domain hook for the
// whole range. Zeroing a page never stored to materialises nothing.
func (h *Heap) PokeZero(addr Address, nWords int64) {
	i := h.span(addr, nWords)
	h.pdStoreQuiet(addr, nWords*WordBytes)
	h.fill(i, int(nWords), 0)
}

// The charged word operations below are each written once, as halves a
// step-form caller (memsim.Worker.Steps) can use on their own: an Issue*
// half runs everything that precedes the charge — the persistence
// domain's store hook, a CAS's effect — and issues the operation on w; a
// commit half applies what follows it. The blocking forms are the halves
// in order with w.Exec() between them. A load has no commit half: its
// value is Peek(addr) once the operation has executed.

// ReadWord models a random 8-byte load. Object addresses are 8-byte
// aligned, so the access is always contained in one cache line and takes
// the single-line accounting fast path.
func (h *Heap) ReadWord(w *memsim.Worker, addr Address) uint64 {
	h.IssueReadWord(w, addr)
	w.Exec()
	return h.load(h.index(addr))
}

// IssueReadWord issues ReadWord's charge.
func (h *Heap) IssueReadWord(w *memsim.Worker, addr Address) {
	h.prefetchWord(addr)
	w.IssueReadWord(h.DevOf(addr), addr)
}

// WriteWord models a random 8-byte cached store.
func (h *Heap) WriteWord(w *memsim.Worker, addr Address, v uint64) {
	h.IssueWriteWord(w, addr)
	w.Exec()
	h.CommitWord(addr, v)
}

// IssueWriteWord notifies the persistence domain of the store and issues
// WriteWord's charge; CommitWord applies the store afterwards.
func (h *Heap) IssueWriteWord(w *memsim.Worker, addr Address) {
	h.pdStore(addr, WordBytes)
	w.IssueWriteWord(h.DevOf(addr), addr)
}

// CommitWord applies a store whose charge IssueWriteWord issued.
func (h *Heap) CommitWord(addr Address, v uint64) { h.store(h.index(addr), v) }

// IssueCAS applies the logical compare-and-swap to the backing store and
// issues its read charge. The effect comes *before* the timing charges:
// the charges yield to the scheduler, so applying the effect first is what
// makes the operation atomic with respect to other simulated workers. A
// successful swap is followed by IssueCASStore.
func (h *Heap) IssueCAS(w *memsim.Worker, addr Address, old, new uint64) (cur uint64, ok bool) {
	h.pdStore(addr, WordBytes)
	idx := h.index(addr)
	cur = h.load(idx)
	ok = cur == old
	if ok {
		h.store(idx, new)
	}
	w.IssueReadWord(h.DevOf(addr), addr)
	return cur, ok
}

// IssueCASStore issues the write charge of a successful swap.
func (h *Heap) IssueCASStore(w *memsim.Worker, addr Address) {
	w.IssueWriteWord(h.DevOf(addr), addr)
}

// ReadRange models a sequential read of n words starting at addr.
func (h *Heap) ReadRange(w *memsim.Worker, addr Address, nWords int64) {
	w.Read(h.DevOf(addr), addr, nWords*WordBytes, true)
}

// CopyWords models copying nWords from src to dst: a sequential read of
// the source plus a sequential cached write of the destination, and moves
// the backing data.
func (h *Heap) CopyWords(w *memsim.Worker, dst, src Address, nWords int64) {
	h.IssueCopyRead(w, dst, src, nWords)
	w.Exec()
	h.IssueCopyWrite(w, dst, nWords)
	w.Exec()
	h.CommitCopy(dst, src, nWords)
}

// IssueCopyRead notifies the persistence domain of the destination store
// and issues the source read of a copy; IssueCopyWrite (or, for
// CopyWordsNT, the streaming store) and CommitCopy follow.
func (h *Heap) IssueCopyRead(w *memsim.Worker, dst, src Address, nWords int64) {
	h.pdStore(dst, nWords*WordBytes)
	h.prefetchWord(src)
	w.IssueRead(h.DevOf(src), src, nWords*WordBytes, true)
}

// IssueCopyWrite issues the cached destination write of a copy.
func (h *Heap) IssueCopyWrite(w *memsim.Worker, dst Address, nWords int64) {
	w.IssueWrite(h.DevOf(dst), dst, nWords*WordBytes, true)
}

// CommitCopy moves the backing data of a copy whose charges were issued, run
// by page-contained run; a source page never stored to copies as zeros.
func (h *Heap) CommitCopy(dst, src Address, nWords int64) {
	d, s, n := h.span(dst, nWords), h.span(src, nWords), int(nWords)
	if s < d && d < s+n { // overlapping with the destination above: back to front
		for n--; n >= 0; n-- {
			h.store(d+n, h.load(s+n))
		}
		return
	}
	for n > 0 {
		do, so := d&pageMask, s&pageMask
		k := min(n, pageWords-do, pageWords-so)
		if sp := h.pages[s>>pageLog]; sp != nil {
			copy(h.touch(d)[do:do+k], sp[so:so+k])
		} else {
			h.fill(d, k, 0)
		}
		d, s, n = d+k, s+k, n-k
	}
}

// CopyWordsNT is CopyWords with a non-temporal destination stream (used by
// the write-back sub-phase of the optimized collector).
func (h *Heap) CopyWordsNT(w *memsim.Worker, dst, src Address, nWords int64) {
	h.IssueCopyRead(w, dst, src, nWords)
	w.Exec()
	w.WriteNT(h.DevOf(dst), dst, nWords*WordBytes)
	h.CommitCopy(dst, src, nWords)
	// Non-temporal stores reach the device write-pending queue directly,
	// which ADR drains on power fail: the written lines are persisted.
	if h.pd != nil {
		h.pd.OnNT(h.DevOf(dst), dst, nWords*WordBytes)
	}
}

// MoveWordsRaw moves backing data without charging any cost (callers
// account the traffic themselves).
func (h *Heap) MoveWordsRaw(dst, src Address, nWords int64) {
	h.pdStoreQuiet(dst, nWords*WordBytes)
	h.CommitCopy(dst, src, nWords)
}

// setAllocError records the first allocation validation failure so the
// caller's run loop can surface it as an error instead of a panic.
func (h *Heap) setAllocError(err error) {
	if h.allocErr == nil {
		h.allocErr = err
	}
}

// AllocError returns the first allocation-size validation failure (e.g. a
// malformed custom workload profile asking for odd-sized objects), or nil.
// Allocation entry points report such failures as ordinary allocation
// failure; callers that see repeated failure should consult this to
// distinguish "heap full" from "request invalid".
func (h *Heap) AllocError() error { return h.allocErr }

// AllocAux carves bytes out of the DRAM aux area (header map, metadata).
// Aux allocations are never freed.
func (h *Heap) AllocAux(bytes int64) (Address, error) {
	need := (bytes + WordBytes - 1) / WordBytes * WordBytes
	if h.auxTop+Address(need) > h.auxEnd {
		return 0, fmt.Errorf("heap: aux area exhausted (%d bytes requested)", bytes)
	}
	a := h.auxTop
	h.auxTop += Address(need)
	return a, nil
}
