package heap

import "fmt"

// RegionClass is a post-crash scanner verdict for one region.
type RegionClass uint8

const (
	// RegionConsistent: the region parses into well-formed objects with no
	// forwarding marks — it needs no recovery work.
	RegionConsistent RegionClass = iota
	// RegionFromSpace: a collection-set region of the interrupted GC. Its
	// pre-GC object copies survive (evacuation never mutates from-space
	// payloads), so forwarded objects are recoverable from here.
	RegionFromSpace
	// RegionDiscarded: volatile or half-evacuated contents that recovery
	// throws away — DRAM write-cache regions and to-space regions claimed
	// by the interrupted GC.
	RegionDiscarded
	// RegionCorrupt: WalkRegion rejects the region (a header that does not
	// decode, or an object running past the bump pointer), or it carries a
	// forwarding mark outside the collection set; data was lost (e.g. a
	// configuration without persist barriers).
	RegionCorrupt
)

// String returns the class name.
func (c RegionClass) String() string {
	switch c {
	case RegionConsistent:
		return "consistent"
	case RegionFromSpace:
		return "from-space"
	case RegionDiscarded:
		return "discarded"
	case RegionCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("RegionClass(%d)", uint8(c))
	}
}

// RegionScan is one region's post-crash classification.
type RegionScan struct {
	Index            int
	Kind             RegionKind
	Class            RegionClass
	Objects          int
	ForwardedHeaders int    // headers still carrying forwarding pointers
	Detail           string // first parse failure, for corrupt regions
}

// PostCrashScan summarizes the whole heap after a crash image has been
// materialized (free regions are skipped).
type PostCrashScan struct {
	Regions    []RegionScan
	Consistent int
	FromSpace  int
	Discarded  int
	Corrupt    int
	Forwarded  int // total surviving forwarding headers (the GC's self-log)
}

// ScanPostCrash classifies every region of the post-crash image. It is
// read-only and uncharged: the GC recovery pass uses it to decide what to
// roll back, and tests use it to assert the scanner never reports a
// corrupt region as consistent.
func (h *Heap) ScanPostCrash() PostCrashScan {
	var s PostCrashScan
	for _, r := range h.regions {
		if r.Kind == RegionFree || r.Kind == RegionRetired {
			// Retired regions are empty and permanently fenced; they hold
			// nothing a recovery pass could classify.
			continue
		}
		rs := RegionScan{Index: r.Index, Kind: r.Kind}
		switch {
		case r.CachePool || r.Kind == RegionCache:
			// DRAM scratch: contents did not survive the power failure.
			rs.Class = RegionDiscarded
		case r.ClaimedInGC:
			// To-space of the interrupted collection: partially filled,
			// never published as authoritative. Discarded by rollback.
			rs.Class = RegionDiscarded
		default:
			rs.Class = RegionConsistent
			if r.InCSet {
				rs.Class = RegionFromSpace
			}
			err := h.WalkRegion(r, func(obj Address, _ *Klass, _ int64) error {
				// The info word describes the object either way (only the
				// mark word is CAS'd during forwarding).
				if IsForwarded(h.Peek(MarkAddr(obj))) {
					rs.ForwardedHeaders++
				}
				rs.Objects++
				return nil
			})
			if err != nil {
				rs.Class = RegionCorrupt
				rs.Detail = err.Error()
			} else if rs.ForwardedHeaders > 0 && !r.InCSet {
				// A forwarding mark outside the collection set means the
				// region was mutated by a GC that never covered it — the
				// image is not a state any barrier protocol produces.
				rs.Class = RegionCorrupt
				rs.Detail = "forwarding mark outside the collection set"
			}
		}
		switch rs.Class {
		case RegionConsistent:
			s.Consistent++
		case RegionFromSpace:
			s.FromSpace++
		case RegionDiscarded:
			s.Discarded++
		case RegionCorrupt:
			s.Corrupt++
		}
		s.Forwarded += rs.ForwardedHeaders
		s.Regions = append(s.Regions, rs)
	}
	return s
}
