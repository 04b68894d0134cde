package gc

import (
	"errors"
	"testing"

	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

// faultEnv builds a machine+heap pair whose NVM tier carries the given
// media-fault model.
func faultEnv(t *testing.T, fm memsim.FaultModel, shape func(*heap.Config)) (*heap.Heap, *memsim.Machine) {
	t.Helper()
	cfg := memsim.DefaultConfig()
	cfg.LLCBytes = 1 << 17
	cfg.Tiers = memsim.WithFault(cfg.Tiers, fm)
	m := memsim.NewMachine(cfg)
	hc := heap.DefaultConfig()
	hc.RegionBytes = 16 << 10
	hc.HeapRegions = 256
	hc.CacheRegions = 64
	hc.EdenRegions = 48
	hc.SurvivorRegions = 32
	hc.AuxBytes = 2 << 20
	hc.RootSlots = 1 << 13
	hc.Poison = true
	if shape != nil {
		shape(&hc)
	}
	h, err := heap.New(m, hc)
	if err != nil {
		t.Fatal(err)
	}
	return h, m
}

// churn runs populate+collect rounds, verifying the live graph across
// every collection, and returns the accumulated fault costs.
func churn(t *testing.T, h *heap.Heap, m *memsim.Machine, col Collector, rounds, threads int, spec graphSpec) FaultCosts {
	t.Helper()
	var total FaultCosts
	for i := 0; i < rounds; i++ {
		spec.seed = uint64(i + 1)
		populate(t, h, m, spec)
		before := liveGraph(t, h)
		s, err := col.Collect(threads)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if err := graphDiff(t, h, before); err != nil {
			t.Fatalf("round %d corrupted the graph: %v", i, err)
		}
		total = addFaults(total, s.Faults)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return total
}

// TestTransientFaultRetryAccounting: a transient-only model makes charged
// GC reads fault occasionally; every fault must be followed by exactly one
// retried read (no storms at this rate) with backoff time charged, and the
// live graph must be untouched.
func TestTransientFaultRetryAccounting(t *testing.T) {
	h, m := faultEnv(t, memsim.FaultModel{Seed: 7, TransientReadPPM: 20000}, nil)
	g, err := NewG1(h, Vanilla())
	if err != nil {
		t.Fatal(err)
	}
	f := churn(t, h, m, g, 3, 4, defaultSpec())
	if f.TransientFaults == 0 {
		t.Fatal("no transient faults served at 2% per probe")
	}
	if f.Retries != f.TransientFaults {
		t.Fatalf("retries %d != transient faults %d: a retried op went unaccounted", f.Retries, f.TransientFaults)
	}
	if f.BackoffTime <= 0 {
		t.Fatalf("backoff time %d despite %d retries", f.BackoffTime, f.Retries)
	}
	if f.UEsDiscovered != 0 || f.RegionsRetired != 0 {
		t.Fatalf("transient-only model produced hard errors: %+v", f)
	}
}

// TestUEDuringEvacuationHealsAndRetires is the headline resilience test:
// under an aggressive wear model, evacuation copies land on lines that die
// mid-collection. The collector must re-route those copies, retire the
// poisoned regions, and still preserve the live graph exactly — churn
// verifies graph isomorphism after every collection.
func TestUEDuringEvacuationHealsAndRetires(t *testing.T) {
	fm := memsim.FaultModel{Seed: 3, WearThresholdMean: 4, WearThresholdSpread: 1}
	h, m := faultEnv(t, fm, nil)
	g, err := NewG1(h, Vanilla())
	if err != nil {
		t.Fatal(err)
	}
	f := churn(t, h, m, g, 8, 4, defaultSpec())
	if f.UEsDiscovered == 0 {
		t.Fatal("wear model never surfaced a hard error")
	}
	if f.RedirectedCopies == 0 {
		t.Fatal("no evacuation copy was ever re-routed off a poisoned line")
	}
	if f.RegionsRetired == 0 || h.RetiredCount() == 0 {
		t.Fatalf("no region retired despite %d hard errors", f.UEsDiscovered)
	}
	for _, r := range h.RetiredRegions() {
		if r.Kind != heap.RegionRetired {
			t.Fatalf("region %d on the retired list has kind %v", r.Index, r.Kind)
		}
		if r.Top != r.Start {
			t.Fatalf("retired region %d not empty", r.Index)
		}
		if r.BadLines == 0 {
			t.Fatalf("region %d retired without a recorded bad line", r.Index)
		}
		if r.RemSet.Len() != 0 {
			t.Fatalf("retired region %d still remembered by %d slots", r.Index, r.RemSet.Len())
		}
	}
	// Retired regions must be fenced from the allocator: no free list may
	// hold them.
	for _, idx := range h.FreeHeapRegionIndices() {
		if h.Regions()[idx].Kind == heap.RegionRetired {
			t.Fatalf("retired region %d sits on the free list", idx)
		}
	}
}

// TestRetirementPressureFallsBackToTier: once the NVM tier trips into
// degraded mode, destination claims must re-route to the healthy DRAM
// tier (graceful degradation, not a panic or livelock), with every
// retried read accounted.
func TestRetirementPressureFallsBackToTier(t *testing.T) {
	fm := memsim.FaultModel{
		Seed:                11,
		TransientReadPPM:    20000,
		WearThresholdMean:   4,
		WearThresholdSpread: 1,
		DegradeUETrip:       2, // trips almost immediately under churn
	}
	h, m := faultEnv(t, fm, func(hc *heap.Config) {
		hc.SurvivorRegions = 2 // tiny survivor space: claims are frequent
	})
	g, err := NewG1(h, Vanilla())
	if err != nil {
		t.Fatal(err)
	}
	f := churn(t, h, m, g, 8, 4, defaultSpec())
	nvm, ok := m.Topology().Tier("nvm")
	if !ok {
		t.Fatal("no nvm tier")
	}
	if !nvm.Degraded() {
		t.Fatalf("nvm tier never degraded despite trip=2: %+v", nvm.FaultStats())
	}
	if f.TierFallbacks == 0 {
		t.Fatal("no destination claim fell back to the healthy tier")
	}
	if f.Retries != f.TransientFaults {
		t.Fatalf("retries %d != transient faults %d under pressure", f.Retries, f.TransientFaults)
	}
	fallback := 0
	for _, r := range h.Regions() {
		if r.Fallback && (r.Kind == heap.RegionSurvivor || r.Kind == heap.RegionOld) {
			fallback++
			if r.Dev != h.CacheDevice() && r.Dev == h.OldDevice() {
				t.Fatalf("fallback region %d still on the degraded device", r.Index)
			}
		}
	}
	if fallback == 0 {
		t.Fatal("TierFallbacks counted but no live fallback region found")
	}
}

// TestTierExhaustedSurfaced: when wear retirement eats the whole free pool
// the collector must fail with ErrTierExhausted — a diagnosable error, not
// a panic or livelock.
func TestTierExhaustedSurfaced(t *testing.T) {
	fm := memsim.FaultModel{Seed: 5, WearThresholdMean: 2, WearThresholdSpread: 1}
	h, m := faultEnv(t, fm, func(hc *heap.Config) {
		hc.HeapRegions = 24 // tiny pool: retirement exhausts it quickly
		hc.EdenRegions = 8
		hc.SurvivorRegions = 4
	})
	g, err := NewG1(h, Vanilla())
	if err != nil {
		t.Fatal(err)
	}
	spec := defaultSpec()
	spec.objects = 1500
	spec.rootProb = 0.3 // high survival keeps the pool under pressure
	for i := 0; i < 64; i++ {
		spec.seed = uint64(i + 1)
		populate(t, h, m, spec)
		if _, err = g.Collect(2); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("64 rounds of aggressive wear never exhausted a 24-region pool")
	}
	if !errors.Is(err, ErrTierExhausted) {
		t.Fatalf("exhaustion surfaced as %v, want ErrTierExhausted", err)
	}
}

// TestFaultsDisabledZeroCosts: without a fault model the resilience layer
// must be completely inert — zero fault costs and no retired regions.
func TestFaultsDisabledZeroCosts(t *testing.T) {
	h, m := testEnv(t)
	populate(t, h, m, defaultSpec())
	g, err := NewG1(h, Optimized())
	if err != nil {
		t.Fatal(err)
	}
	s := collectAndVerify(t, h, g, 4)
	if s.Faults != (FaultCosts{}) {
		t.Fatalf("fault costs on a fault-free machine: %+v", s.Faults)
	}
	if h.RetiredCount() != 0 {
		t.Fatal("regions retired on a fault-free machine")
	}
}
