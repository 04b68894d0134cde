package workload

import (
	"testing"

	"nvmgc/internal/gc"
	"nvmgc/internal/memsim"
)

// TestNewHostWiring: the assembly owns collector selection and the
// persistence wiring a crash-consistent collector needs, so no caller can
// forget either.
func TestNewHostWiring(t *testing.T) {
	mc := memsim.DefaultConfig()
	mc.TraceBucket = 0

	plain, err := NewHost(mc, KeyedHeapConfig(), false, gc.Optimized())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Col.Name() != "g1" || plain.Col.Heap() != plain.H || plain.H.Machine() != plain.M {
		t.Fatalf("g1 host miswired: collector %q", plain.Col.Name())
	}
	if plain.M.Persist() != nil || plain.H.Config().MetaBytes != 0 {
		t.Fatalf("Persist=none built a persistence domain or a %d-byte journal area", plain.H.Config().MetaBytes)
	}

	ps, err := NewHost(mc, KeyedHeapConfig(), true, gc.Vanilla())
	if err != nil {
		t.Fatal(err)
	}
	if ps.Col.Name() != "ps" {
		t.Fatalf("ps=true built collector %q", ps.Col.Name())
	}

	for _, mode := range []gc.Persistence{gc.PersistADR, gc.PersistEADR} {
		opt := gc.Optimized()
		opt.Persist = mode
		host, err := NewHost(mc, KeyedHeapConfig(), false, opt)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		pd := host.M.Persist()
		if pd == nil || !pd.Tracks(host.M.NVM) {
			t.Fatalf("%v: the persistent tier is not tracked", mode)
		}
		if pd.EADR() != (mode == gc.PersistEADR) {
			t.Fatalf("%v: domain eADR = %v", mode, pd.EADR())
		}
		if host.H.Config().MetaBytes == 0 {
			t.Fatalf("%v: no journal area", mode)
		}
		if _, err := host.Col.Collect(4); err != nil {
			t.Fatalf("%v: collection on the assembled host: %v", mode, err)
		}
	}
}
