package gc

import "nvmgc/internal/memsim"

// CollectionStats records one collection.
type CollectionStats struct {
	Full     bool        // full GC (whole-heap collection set)
	Mixed    bool        // mixed GC (young + selected old regions)
	MarkTime memsim.Time // marking duration (concurrent in real G1)
	Pause    memsim.Time // total stop-the-world pause

	ReadMostly memsim.Time // copy-and-traverse sub-phase
	WriteOnly  memsim.Time // cache write-back sub-phase
	Cleanup    memsim.Time // header-map clean-up

	SlotsProcessed  int64
	ObjectsCopied   int64
	BytesCopied     int64
	ObjectsPromoted int64
	BytesPromoted   int64
	WastedCopies    int64 // copies lost to a forwarding race

	HeaderMapHits      int64 // forwarding found in the DRAM map
	HeaderMapInstalls  int64
	HeaderMapFallbacks int64 // map full, forwarded via the NVM header

	CacheRegionsUsed    int64
	CacheFallbackBytes  int64 // copied straight to NVM after budget exhaustion
	RegionsFlushedSync  int64
	RegionsFlushedAsync int64
	StolenSlots         int64
	RegionsStolenFrom   int64 // regions excluded from async flushing

	// Faults is never written. It stays, with FaultCosts, because
	// benchmarks/sim.go fingerprints the %+v rendering of CollectionStats
	// against benchmarks/expected.json, and dropping a field moves every
	// pin there (ROADMAP item 6(a)).
	Faults FaultCosts

	// Crash-consistency costs (zero when Persist is PersistNone).
	Checkpoint          memsim.Time // journal open + header persist at GC start
	PersistBarrier      memsim.Time // end-of-GC dirty-line flush + journal commit
	JournalEntries      int64       // undo records appended this collection
	JournalBytes        int64
	PersistFlushedLines int64 // cache lines CLWB'd by the end-of-GC barrier

	NVM  memsim.DeviceStats // aggregate persistent-tier traffic during the pause
	DRAM memsim.DeviceStats // aggregate volatile-tier traffic during the pause

	// Tiers is the per-tier traffic breakdown in topology order. Under the
	// default two-tier topology it has exactly the "dram" and "nvm" entries
	// (mirroring the DRAM/NVM aggregates above); richer topologies expose
	// each tier's share here.
	Tiers []TierTraffic
}

// FaultCosts is the frozen shape of CollectionStats.Faults (always zero).
type FaultCosts struct {
	TransientFaults  int64       // correctable read faults encountered
	Retries          int64       // charged re-reads issued
	BackoffTime      memsim.Time // virtual time spent backing off
	UEsDiscovered    int64       // hard-error lines surfaced this collection
	RedirectedCopies int64       // evacuation copies re-routed off a poisoned line
	RegionsRetired   int64       // regions moved to the wear-retired state
	TierFallbacks    int64       // destination claims served by a fallback tier
}

// TierTraffic is one memory tier's device traffic during a collection.
type TierTraffic struct {
	Name       string
	Persistent bool
	Stats      memsim.DeviceStats
}

// Totals aggregates collections.
type Totals struct {
	Collections int
	Pause       memsim.Time
	MaxPause    memsim.Time
	BytesCopied int64
	NVM         memsim.DeviceStats
	DRAM        memsim.DeviceStats

	// Tiers aggregates the per-tier breakdowns by tier name, in first-seen
	// (topology) order.
	Tiers []TierTraffic
}

// Accumulate folds one collection into the totals.
func (t *Totals) Accumulate(s CollectionStats) {
	t.Collections++
	t.Pause += s.Pause
	if s.Pause > t.MaxPause {
		t.MaxPause = s.Pause
	}
	t.BytesCopied += s.BytesCopied
	t.NVM = addStats(t.NVM, s.NVM)
	t.DRAM = addStats(t.DRAM, s.DRAM)
	for _, tt := range s.Tiers {
		t.addTier(tt)
	}
}

func (t *Totals) addTier(tt TierTraffic) {
	for i := range t.Tiers {
		if t.Tiers[i].Name == tt.Name {
			t.Tiers[i].Stats = addStats(t.Tiers[i].Stats, tt.Stats)
			return
		}
	}
	t.Tiers = append(t.Tiers, tt)
}

// Tier returns the aggregated traffic of the named tier, or a zero value.
func (t *Totals) Tier(name string) TierTraffic {
	for _, tt := range t.Tiers {
		if tt.Name == name {
			return tt
		}
	}
	return TierTraffic{Name: name}
}

func addStats(a, b memsim.DeviceStats) memsim.DeviceStats {
	return memsim.DeviceStats{
		ReadBytes:      a.ReadBytes + b.ReadBytes,
		WriteBytes:     a.WriteBytes + b.WriteBytes,
		WritebackBytes: a.WritebackBytes + b.WritebackBytes,
		NTBytes:        a.NTBytes + b.NTBytes,
		ReadOps:        a.ReadOps + b.ReadOps,
		WriteOps:       a.WriteOps + b.WriteOps,
	}
}

// TotalsOf aggregates a slice of collections.
func TotalsOf(stats []CollectionStats) Totals {
	var t Totals
	for _, s := range stats {
		t.Accumulate(s)
	}
	return t
}
