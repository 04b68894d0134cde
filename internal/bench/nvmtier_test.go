package bench

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// TestNVMTierReachesEveryFigureMachine: Params.NVMTier must change every
// experiment that builds a machine without declaring its own topology.
// fig8 and fig10 used to assemble their hosts by hand and silently
// ignored it; fleet ignored the eADR bit of the tier it got, so its
// persistent rows on eadr-nvm equalled optane's. The base renders are
// pinned so the fix cannot move them, and the tables themselves (not
// just a note) must differ on the substituted tier.
func TestNVMTierReachesEveryFigureMachine(t *testing.T) {
	tables := func(r *Report) string {
		var b strings.Builder
		for _, tbl := range r.Tables {
			b.WriteString(tbl.Render())
		}
		return b.String()
	}
	for _, tc := range []struct {
		id         string
		run        func(Params) (*Report, error)
		scale      float64 // the smallest at which the figure sees a collection
		base, tier string  // the pinned render's NVMTier, and the one that must move it
		pinned     string  // sha256 of the base render, first 16 hex digits
	}{
		{"fig8", Fig8, 0.2, "", "remote-dram", "45fdeb3474e9f380"},
		{"fig10", Fig10, 0.1, "", "remote-dram", "9f149270873a8797"},
		{"fleet", FleetBench, 0.2, "optane", "eadr-nvm", "894018c48c925e1f"},
	} {
		p := Params{Scale: tc.scale, Quick: true, Seed: 1, NVMTier: tc.base}
		def, err := tc.run(p)
		if err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(def.Render())))[:16]; got != tc.pinned {
			t.Errorf("%s: base render moved: sha256 %s, pinned %s\n%s", tc.id, got, tc.pinned, def.Render())
		}
		p.NVMTier = tc.tier
		sub, err := tc.run(p)
		if err != nil {
			t.Fatalf("%s on %s: %v", tc.id, tc.tier, err)
		}
		if tables(sub) == tables(def) {
			t.Errorf("%s: NVMTier=%s rendered the same tables as NVMTier=%q", tc.id, tc.tier, tc.base)
		}
	}
}
