package heap

import (
	"strings"
	"testing"

	"nvmgc/internal/memsim"
)

// TestScanPostCrashClasses builds one region per post-crash class on an
// interrupted collection and asserts the scanner's verdict for each: it
// must never report a corrupt region as consistent.
func TestScanPostCrashClasses(t *testing.T) {
	for _, tc := range []struct {
		name   string
		region func(t *testing.T, h *Heap, old, eden *Region) *Region
		want   RegionClass
		fwd    int
		detail string
	}{
		{"old region", func(t *testing.T, h *Heap, old, eden *Region) *Region {
			return old
		}, RegionConsistent, 0, ""},
		{"collection-set region", func(t *testing.T, h *Heap, old, eden *Region) *Region {
			h.Poke(MarkAddr(eden.Start), ForwardedMark(old.Start))
			return eden
		}, RegionFromSpace, 1, ""},
		{"to-space claimed by the collection", func(t *testing.T, h *Heap, old, eden *Region) *Region {
			r, ok := h.ClaimRegion(RegionSurvivor, nil)
			if !ok {
				t.Fatal("no free region")
			}
			return r
		}, RegionDiscarded, 0, ""},
		{"write-cache region", func(t *testing.T, h *Heap, old, eden *Region) *Region {
			r, ok := h.ClaimRegion(RegionCache, nil)
			if !ok {
				t.Fatal("no cache region")
			}
			return r
		}, RegionDiscarded, 0, ""},
		{"malformed header", func(t *testing.T, h *Heap, old, eden *Region) *Region {
			h.Poke(InfoAddr(old.Start+4*WordBytes), MakeInfo(9999, 4))
			return old
		}, RegionCorrupt, 0, "malformed object"},
		{"forwarding mark outside the collection set", func(t *testing.T, h *Heap, old, eden *Region) *Region {
			h.Poke(MarkAddr(old.Start), ForwardedMark(eden.Start))
			return old
		}, RegionCorrupt, 1, "forwarding mark outside the collection set"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, m := testHeap(t)
			k := mustKlass(t, h, "node", 4, []int32{2})
			var a, b Address
			m.Run(1, func(w *memsim.Worker) {
				a, _ = h.AllocateOld(w, k, 4)
				h.AllocateOld(w, k, 4)
				b, _ = h.AllocateEden(w, k, 4)
			})
			old, eden := h.RegionOf(a), h.RegionOf(b)
			h.BeginMixedCollection(nil)
			r := tc.region(t, h, old, eden)
			var got *RegionScan
			scan := h.ScanPostCrash()
			for i := range scan.Regions {
				if scan.Regions[i].Index == r.Index {
					got = &scan.Regions[i]
				}
			}
			if got == nil {
				t.Fatalf("region %d missing from the scan %+v", r.Index, scan)
			}
			if got.Class != tc.want || got.ForwardedHeaders != tc.fwd || !strings.Contains(got.Detail, tc.detail) {
				t.Fatalf("scan = %+v, want class %v, %d forwarded, detail %q", *got, tc.want, tc.fwd, tc.detail)
			}
			if n := map[RegionClass]int{
				RegionConsistent: scan.Consistent, RegionFromSpace: scan.FromSpace,
				RegionDiscarded: scan.Discarded, RegionCorrupt: scan.Corrupt,
			}[tc.want]; n == 0 {
				t.Fatalf("class %v not counted in the totals: %+v", tc.want, scan)
			}
		})
	}
}
