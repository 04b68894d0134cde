package workload

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"nvmgc/internal/gc"
	"nvmgc/internal/memsim"
)

// TestNewHostWiring: the assembly owns collector selection and the
// persistence wiring a crash-consistent collector needs, so no caller can
// forget either.
func TestNewHostWiring(t *testing.T) {
	spec := func(ps bool, opt gc.Options) HostSpec {
		s := KeyedHost()
		s.Machine.TraceBucket = 0
		s.PS, s.Opt = ps, opt
		return s
	}
	plain, err := NewHost(spec(false, gc.Optimized()))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Col.Name() != "g1" || plain.Col.Heap() != plain.H || plain.H.Machine() != plain.M {
		t.Fatalf("g1 host miswired: collector %q", plain.Col.Name())
	}
	if plain.M.Persist() != nil || plain.H.Config().MetaBytes != 0 {
		t.Fatalf("Persist=none built a persistence domain or a %d-byte journal area", plain.H.Config().MetaBytes)
	}

	ps, err := NewHost(spec(true, gc.Vanilla()))
	if err != nil {
		t.Fatal(err)
	}
	if ps.Col.Name() != "ps" {
		t.Fatalf("ps=true built collector %q", ps.Col.Name())
	}

	// The persistent tier owns eADR: each collector mode on each platform
	// gets the tier's domain, and only an eADR collector on an ADR tier
	// is refused.
	for _, tc := range []struct {
		mode gc.Persistence
		tier string
		eADR bool
	}{
		{gc.PersistADR, "optane", false},
		{gc.PersistADR, "eadr-nvm", true},
		{gc.PersistEADR, "eadr-nvm", true},
	} {
		opt := gc.Optimized()
		opt.Persist = tc.mode
		s := spec(false, opt)
		s.Machine.Tiers = nvmTier(s.Machine.Tiers, tc.tier)
		host, err := NewHost(s)
		if err != nil {
			t.Fatalf("%v on %s: %v", tc.mode, tc.tier, err)
		}
		pd := host.M.Persist()
		if pd == nil || !pd.Tracks(host.M.NVM) {
			t.Fatalf("%v on %s: the persistent tier is not tracked", tc.mode, tc.tier)
		}
		if pd.EADR() != tc.eADR {
			t.Fatalf("%v on %s: domain eADR = %v", tc.mode, tc.tier, pd.EADR())
		}
		if host.H.Config().MetaBytes == 0 {
			t.Fatalf("%v on %s: no journal area", tc.mode, tc.tier)
		}
		if _, err := host.Col.Collect(4); err != nil {
			t.Fatalf("%v on %s: collection on the assembled host: %v", tc.mode, tc.tier, err)
		}
	}
	opt := gc.Optimized()
	opt.Persist = gc.PersistEADR
	s := spec(false, opt)
	s.Machine.Tiers = nvmTier(s.Machine.Tiers, "optane")
	if _, err := NewHost(s); err == nil || !strings.Contains(err.Error(), `"nvm"`) {
		t.Fatalf("PersistEADR on an ADR tier: err = %v, want one naming tier \"nvm\"", err)
	}
}

// nvmTier returns tiers with its "nvm" tier replaced by the named
// built-in profile under the name "nvm".
func nvmTier(tiers []memsim.TierSpec, builtin string) []memsim.TierSpec {
	out := slices.Clone(tiers)
	for i := range out {
		if out[i].Name == "nvm" {
			out[i] = memsim.MustBuiltinTier(builtin)
			out[i].Name = "nvm"
		}
	}
	return out
}

// TestHostFootprint pins the host memory one small run costs. The default
// geometry is a 92 MB address space (64 MiB heap, 8 MiB cache pool, 16 MiB
// aux); the heap materialises it by the 1 MiB chunk on first store, so a
// run that fills eden once and collects pays for the chunks it reaches
// plus the machine's own slabs (34.6 MB measured). A regression that
// materialises the whole space again — per machine, so per point of every
// sweep — costs 94 MB.
func TestHostFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := PaperHost()
	h.Opt = gc.Optimized()
	host, err := NewHost(h)
	if err != nil {
		t.Fatal(err)
	}
	r, err := scenario(t, "naive-bayes").NewRunner(host.Col, Config{GCThreads: 8, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Collections) == 0 {
		t.Fatal("the run never collected: it does not exercise the heap")
	}
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("NewHost + naive-bayes at scale 0.2: %.1f MB allocated, %d collections", mb, len(res.Collections))
	const maxMB = 48
	if mb > maxMB {
		t.Fatalf("one small host allocated %.1f MB, want <= %d (is the address space materialised up front again?)", mb, maxMB)
	}
}
