package bench

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestNVMTierReachesEveryFigureMachine: Params.NVMTier must change every
// experiment that builds a machine without declaring its own topology.
// fig8 and fig10 used to assemble their hosts by hand and silently
// ignored it. The default renders are pinned so the fix cannot move them.
func TestNVMTierReachesEveryFigureMachine(t *testing.T) {
	for _, tc := range []struct {
		id     string
		run    func(Params) (*Report, error)
		scale  float64 // the smallest at which the figure sees a collection
		pinned string  // sha256 of the default render, first 16 hex digits
	}{
		{"fig8", Fig8, 0.2, "45fdeb3474e9f380"},
		{"fig10", Fig10, 0.1, "9f149270873a8797"},
	} {
		p := Params{Scale: tc.scale, Quick: true, Seed: 1}
		def, err := tc.run(p)
		if err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(def.Render())))[:16]; got != tc.pinned {
			t.Errorf("%s: default render moved: sha256 %s, pinned %s\n%s", tc.id, got, tc.pinned, def.Render())
		}
		p.NVMTier = "remote-dram"
		sub, err := tc.run(p)
		if err != nil {
			t.Fatalf("%s on remote-dram: %v", tc.id, err)
		}
		if sub.Render() == def.Render() {
			t.Errorf("%s: NVMTier=remote-dram rendered the same table as the default tier", tc.id)
		}
	}
}
