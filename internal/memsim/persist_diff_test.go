package memsim

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// persistImpl is line bookkeeping under differential test: the directory
// (every hook nil), or a mutant with one hook replaced by a seeded defect.
type persistImpl struct {
	name    string
	capture func(pd *PersistDomain, from, to uint64)
	evict   func(pd *PersistDomain, dev *Device, la uint64)
	fence   func(pd *PersistDomain)
}

// persistMutants are three ways the directory goes wrong quietly.
var persistMutants = []persistImpl{
	{name: "fence frees a re-dirtied slot", fence: func(pd *PersistDomain) {
		pd.stats.Fences++
		for _, s := range pd.pending {
			if c := pd.cell(pd.shadow(s).la); *c == s || *c == -s {
				pd.persisted(c)
			}
		}
		pd.pending = pd.pending[:0]
	}},
	{name: "eviction forgets the pending counter", evict: func(pd *PersistDomain, dev *Device, la uint64) {
		if c := pd.cell(la); c != nil && *c != 0 && pd.Tracks(dev) {
			if *c > 0 {
				pd.stats.EvictPersists++
				pd.persisted(c)
				return
			}
			pd.free = append(pd.free, -*c)
			*c = 0
		}
	}},
	{name: "capture re-reads a dirty line", capture: func(pd *PersistDomain, from, to uint64) {
		for la := from &^ (LineSize - 1); la < to; la += LineSize {
			if c := pd.cell(la); c != nil && *c > 0 {
				sh := pd.shadow(*c)
				for k := range sh.words {
					sh.words[k] = pd.peek(la + uint64(k*8))
				}
			}
		}
		pd.capture(from, to)
	}},
}

// diffPersist drives impl and the map model with one seeded stream of
// cached stores (charged and quiet, one word or several lines), NT
// ranges, dirty evictions, CLWBs, fences and PersistAll over a range of
// four directory pages (the last one partial). Half of the lines the
// stream touches lie within four lines of a page edge, and a twentieth of
// the hooks name an untracked device. After every step it compares
// DirtyLines, Stats and isDirty; at the end it crashes both under plan and
// compares the reports and the post-crash images.
func diffPersist(impl persistImpl, seed uint64, plan FaultPlan) (rep CrashReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	const lo, hi = 1 << 32, 1<<32 + 3<<20 + 40*LineSize
	m := NewMachine(tinyCacheConfig())
	pd := m.EnablePersist(m.NVM, false)
	got, want := map[uint64]uint64{}, map[uint64]uint64{}
	pd.SetBacking(func(a uint64) uint64 { return got[a] }, func(a, v uint64) { got[a] = v }, lo, hi)
	ref := newRefDomain(m.NVM, func(a uint64) uint64 { return want[a] }, func(a, v uint64) { want[a] = v }, lo, hi)

	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	var pool []uint64
	for len(pool) < 48 {
		edge := uint64(lo + rng.IntN(4)<<20)
		if la := edge + uint64(rng.IntN(8))*LineSize - 4*LineSize; la >= lo && la < hi {
			pool = append(pool, la)
		}
	}
	for len(pool) < 96 {
		pool = append(pool, lo+uint64(rng.IntN((hi-lo)/LineSize))*LineSize)
	}
	write := func(addr uint64, n int64, v uint64) {
		for a := addr; a < addr+uint64(n); a += 8 {
			got[a], want[a] = v, v
		}
	}
	for step := 1; step <= 4000; step++ {
		la := pool[rng.IntN(len(pool))]
		dev := m.NVM
		if rng.IntN(20) == 0 {
			dev = m.DRAM
		}
		addr := la + uint64(rng.IntN(LineSize/8))*8
		n := min(int64(8*(1+rng.IntN(3*LineSize/8))), int64(hi-addr))
		what := ""
		switch op := rng.IntN(100); {
		case op < 45:
			if op >= 15 {
				n = 8
			}
			quiet := op%4 == 0
			what = fmt.Sprintf("store %#x+%d (quiet %v)", addr, n, quiet)
			switch {
			case impl.capture != nil:
				if from, to, ok := pd.clip(dev, addr, n); ok {
					if !quiet {
						pd.stores++
					}
					impl.capture(pd, from, to)
				}
			case quiet:
				pd.OnStoreQuiet(dev, addr, n)
			default:
				pd.OnStore(dev, addr, n)
			}
			if quiet {
				ref.OnStoreQuiet(dev, addr, n)
			} else {
				ref.OnStore(dev, addr, n)
			}
			write(addr, n, uint64(step))
		case op < 55:
			what = fmt.Sprintf("NT %#x+%d", addr, n)
			write(addr, n, uint64(step))
			pd.OnNT(dev, addr, n)
			ref.OnNT(dev, addr, n)
		case op < 75:
			what = fmt.Sprintf("evict %#x", la)
			if impl.evict != nil {
				impl.evict(pd, dev, la)
			} else {
				pd.onEvict(dev, la)
			}
			ref.onEvict(dev, la)
		case op < 93:
			what = fmt.Sprintf("CLWB %#x", la)
			pd.onCLWB(dev, la)
			ref.onCLWB(dev, la)
		case op < 99 || step > 3000: // the crash finds the last 1000 steps' lines
			what = "fence"
			if impl.fence != nil {
				impl.fence(pd)
			} else {
				pd.onFence()
			}
			ref.onFence()
		default:
			what = "PersistAll"
			pd.PersistAll()
			ref.PersistAll()
		}
		if g, w := pd.DirtyLines(), ref.DirtyLines(); !slices.Equal(g, w) {
			return rep, fmt.Errorf("step %d (%s): dirty lines %#x, model %#x", step, what, g, w)
		}
		if g, w := pd.Stats(), ref.Stats(); g != w {
			return rep, fmt.Errorf("step %d (%s): stats %+v, model %+v", step, what, g, w)
		}
		if g, w := pd.isDirty(la), ref.isDirty(la); g != w {
			return rep, fmt.Errorf("step %d (%s): isDirty(%#x) = %v, model %v", step, what, la, g, w)
		}
	}

	m.crashed, m.fault = true, &plan
	if rep, err = m.MaterializeCrash(); err != nil {
		return rep, err
	}
	if w := ref.materialize(plan, 0); rep != w {
		return rep, fmt.Errorf("%+v: crash report %+v, model %+v", plan, rep, w)
	}
	if g, w := pd.Stats(), ref.Stats(); g != w {
		return rep, fmt.Errorf("%+v: stats after the crash %+v, model %+v", plan, g, w)
	}
	for _, words := range []map[uint64]uint64{got, want} {
		for a := range words {
			if got[a] != want[a] {
				return rep, fmt.Errorf("%+v: post-crash word %#x = %d, model %d", plan, a, got[a], want[a])
			}
		}
	}
	return rep, nil
}

// crashPlans are the four TornLine x KeepPending materializations.
var crashPlans = []FaultPlan{{}, {TornLine: true}, {KeepPending: true}, {TornLine: true, KeepPending: true}}

// TestPersistDomainMatchesMapModel: the line directory and the map model
// agree on every step of the stream and on every crash image, and the
// crashes revert, keep and tear lines.
func TestPersistDomainMatchesMapModel(t *testing.T) {
	kept := 0
	for seed := uint64(1); seed <= 3; seed++ {
		for _, plan := range crashPlans {
			rep, err := diffPersist(persistImpl{name: "directory"}, seed, plan)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if rep.RevertedLines == 0 || rep.TornLine != plan.TornLine {
				t.Fatalf("seed %d, %+v: vacuous crash %+v", seed, plan, rep)
			}
			if plan.KeepPending {
				kept += rep.KeptLines
			}
		}
	}
	if kept == 0 {
		t.Fatal("no crash found a pending line to keep")
	}
}

// TestPersistDiffCatchesMutants: the differential stream notices each
// seeded defect.
func TestPersistDiffCatchesMutants(t *testing.T) {
	for _, mut := range persistMutants {
		var err error
		for _, plan := range crashPlans {
			if _, err = diffPersist(mut, 1, plan); err != nil {
				break
			}
		}
		if err == nil {
			t.Errorf("mutant %q passed the differential test", mut.name)
		}
		t.Logf("%s: %v", mut.name, err)
	}
}
