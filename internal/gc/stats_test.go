package gc

import (
	"fmt"
	"testing"

	"nvmgc/internal/memsim"
)

// TestHashedStatsShape pins the %+v rendering of the stats a benchmark
// point reports. benchmarks/sim.go fingerprints exactly this text (field
// names, order and nesting included) against benchmarks/expected.json, so
// adding, removing, renaming or reordering a field here moves every pin
// there, even when no virtual number changes.
func TestHashedStatsShape(t *testing.T) {
	for _, c := range []struct {
		name string
		v    any
		want string
	}{
		{"CollectionStats", CollectionStats{}, "{Full:false Mixed:false MarkTime:0 Pause:0 ReadMostly:0 WriteOnly:0 Cleanup:0 " +
			"SlotsProcessed:0 ObjectsCopied:0 BytesCopied:0 ObjectsPromoted:0 BytesPromoted:0 WastedCopies:0 " +
			"HeaderMapHits:0 HeaderMapInstalls:0 HeaderMapFallbacks:0 CacheRegionsUsed:0 CacheFallbackBytes:0 " +
			"RegionsFlushedSync:0 RegionsFlushedAsync:0 StolenSlots:0 RegionsStolenFrom:0 " +
			"Faults:{TransientFaults:0 Retries:0 BackoffTime:0 UEsDiscovered:0 RedirectedCopies:0 RegionsRetired:0 TierFallbacks:0} " +
			"Checkpoint:0 PersistBarrier:0 JournalEntries:0 JournalBytes:0 PersistFlushedLines:0 " +
			"NVM:{ReadBytes:0 WriteBytes:0 WritebackBytes:0 NTBytes:0 ReadOps:0 WriteOps:0} " +
			"DRAM:{ReadBytes:0 WriteBytes:0 WritebackBytes:0 NTBytes:0 ReadOps:0 WriteOps:0} Tiers:[]}"},
		{"TierTraffic", TierTraffic{}, "{Name: Persistent:false Stats:{ReadBytes:0 WriteBytes:0 WritebackBytes:0 NTBytes:0 ReadOps:0 WriteOps:0}}"},
		{"memsim.CacheStats", memsim.CacheStats{}, "{Hits:0 Misses:0 Writebacks:0 PrefetchPromotions:0 PrefetchOverwrites:0}"},
	} {
		if got := fmt.Sprintf("%+v", c.v); got != c.want {
			t.Errorf("%s renders as\n%s\nwant\n%s\nbenchmarks/sim.go fingerprints this shape against benchmarks/expected.json: "+
				"changing it re-pins every benchmark point, which waits for a benchmark-only change (ROADMAP item 6(a))",
				c.name, got, c.want)
		}
	}
}
