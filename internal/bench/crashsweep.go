package bench

import (
	"fmt"
	"math/rand/v2"

	"nvmgc/internal/check"
	"nvmgc/internal/gc"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
	"nvmgc/internal/metrics"
	"nvmgc/internal/par"
)

// The crash sweep is the robustness companion to the performance figures:
// it plants deterministic virtual-time power failures throughout the GC
// pause, materializes the post-crash NVM image (persisted lines intact,
// unpersisted lines reverted, one optionally torn XPLine), runs the
// collector's recovery pass, and proves each recovered heap isomorphic to
// the pre-GC live graph. Configurations with persist barriers (ADR/eADR)
// must recover from every crash point; the barrier-free PersistNone
// baseline is documented-unrecoverable and its failures must be flagged,
// never reported as consistent.

// crashSweepConfig is one collector/persistence-domain combination swept.
type crashSweepConfig struct {
	name     string
	opt      gc.Options
	barriers bool // false: the documented-unrecoverable baseline
}

func crashSweepConfigs(quick bool) []crashSweepConfig {
	adr := func(o gc.Options) gc.Options { o.Persist = gc.PersistADR; return o }
	all := gc.Optimized()
	all.HeaderMapMinThreads = 1
	allE := all
	allE.Persist = gc.PersistEADR
	cfgs := []crashSweepConfig{
		{name: "vanilla+adr", opt: adr(gc.Vanilla()), barriers: true},
		{name: "writecache+adr", opt: adr(gc.WithWriteCache()), barriers: true},
		{name: "all+adr", opt: adr(all), barriers: true},
		{name: "all+eadr", opt: allE, barriers: true},
		{name: "vanilla+none", opt: gc.Vanilla()},
	}
	if quick {
		return []crashSweepConfig{cfgs[0], cfgs[3], cfgs[4]}
	}
	return cfgs
}

// newCrashSweepEnv builds one fresh, fully deterministic environment: a
// persistence-tracked machine, a small heap, a synthetic object graph
// (chains, primitive arrays, old-space holders with young references),
// a collector, and the pre-GC live graph. Mutator data is declared
// durable before GC entry — the campaign contract. It assembles its own
// host rather than calling workload.NewHost: the barrier-free baseline
// needs a persistence domain its collector does not ask for.
func newCrashSweepEnv(cc crashSweepConfig, seed uint64) (*gc.G1, *check.Snapshot, error) {
	// The campaign pins its platform: Optane behind ADR, or behind eADR
	// for the collector that assumes it.
	var p Params
	if cc.opt.Persist == gc.PersistEADR {
		p.NVMTier = "eadr-nvm"
	}
	mc := p.machineConfig(false)
	mc.LLCBytes = 1 << 17
	m := memsim.NewMachine(mc)
	m.EnablePersist(m.NVM, m.TierOf(m.NVM).EADR())
	hc := heap.DefaultConfig()
	hc.RegionBytes = 16 << 10
	hc.HeapRegions = 256
	hc.CacheRegions = 64
	hc.EdenRegions = 48
	hc.SurvivorRegions = 32
	hc.AuxBytes = 2 << 20
	hc.MetaBytes = 1 << 20
	hc.RootSlots = 1 << 12
	hc.Poison = true
	h, err := heap.New(m, hc)
	if err != nil {
		return nil, nil, err
	}
	if err := populateCrashGraph(h, m, seed); err != nil {
		return nil, nil, err
	}
	g, err := gc.NewG1(h, cc.opt)
	if err != nil {
		return nil, nil, err
	}
	m.Persist().PersistAll()
	pre, err := check.Capture(h)
	return g, pre, err
}

// populateCrashGraph fills eden with a linked graph rooted in both the
// external root set and old-space holder objects.
func populateCrashGraph(h *heap.Heap, m *memsim.Machine, seed uint64) error {
	node, err := h.Klasses.Define("node", 6, []int32{2, 3})
	if err != nil {
		return err
	}
	arr, err := h.Klasses.DefineArray("prim[]", false)
	if err != nil {
		return err
	}
	holder, err := h.Klasses.Define("holder", 4, []int32{2})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(seed, 99))
	var perr error
	m.Run(1, func(w *memsim.Worker) {
		var holders []heap.Address
		for i := 0; i < 32; i++ {
			a, ok := h.AllocateOld(w, holder, 4)
			if !ok {
				perr = fmt.Errorf("crash sweep: old allocation failed")
				return
			}
			holders = append(holders, a)
			if _, ok := h.Roots.Add(w, a); !ok {
				perr = fmt.Errorf("crash sweep: root set full")
				return
			}
		}
		var prev heap.Address
		for i := 0; i < 4000; i++ {
			var a heap.Address
			var ok bool
			if rng.Float64() < 0.1 {
				a, ok = h.AllocateEden(w, arr, 32)
			} else {
				a, ok = h.AllocateEden(w, node, 6)
				if ok {
					h.Poke(heap.SlotAddr(a, 4), uint64(i))
					if prev != 0 && rng.Float64() < 0.7 {
						h.SetRef(w, a, 2, prev)
					}
				}
			}
			if !ok {
				break
			}
			if rng.Float64() < 0.05 {
				if rng.Float64() < 0.5 {
					h.SetRef(w, holders[rng.IntN(len(holders))], 2, a)
				} else {
					h.Roots.Add(w, a)
				}
			}
			prev = a
		}
	})
	return perr
}

var crashPhases = []string{"checkpoint", "copy", "write-back", "persist-barrier", "cleanup"}

// crashPhaseOf maps an offset into the pause to the GC sub-phase it
// lands in, using the boundaries measured by the config's dry run.
func crashPhaseOf(s gc.CollectionStats, off memsim.Time) string {
	switch {
	case off < s.Checkpoint:
		return "checkpoint"
	case off < s.ReadMostly:
		return "copy"
	case off < s.ReadMostly+s.WriteOnly:
		return "write-back"
	case off < s.ReadMostly+s.WriteOnly+s.PersistBarrier:
		return "persist-barrier"
	default:
		return "cleanup"
	}
}

type crashPointOut struct{ phase, outcome string }

// CrashSweep runs the power-failure campaign. Every data point builds its
// own machine and is deterministic given the seed, so points fan out over
// the host pool without affecting any result.
func CrashSweep(p Params) (*Report, error) {
	threads := p.threads(4)
	cfgs := crashSweepConfigs(p.Quick)
	nFracs := 16
	if p.Quick {
		nFracs = 4
	}
	fracs := make([]float64, nFracs)
	for i := range fracs {
		fracs[i] = 0.015 + 0.97*float64(i)/float64(nFracs-1)
	}

	// Dry run per config: one uninterrupted collection on a twin
	// environment yields the pause, the phase boundaries, and the
	// persist-barrier cost figures.
	type dryOut struct {
		start memsim.Time
		stats gc.CollectionStats
	}
	drys, err := par.Map(len(cfgs), p.Parallel, func(ci int) (dryOut, error) {
		g, _, err := newCrashSweepEnv(cfgs[ci], p.seed())
		if err != nil {
			return dryOut{}, err
		}
		start := g.Heap().Machine().Now()
		s, err := g.Collect(threads)
		if err != nil {
			return dryOut{}, fmt.Errorf("crash sweep: %s dry run: %w", cfgs[ci].name, err)
		}
		return dryOut{start: start, stats: s}, nil
	})
	if err != nil {
		return nil, err
	}

	// The sweep proper: cfgs x fracs independent crash points; point i
	// is config i/nFracs at fraction i%nFracs, every other fraction torn.
	outs, err := par.Map(len(cfgs)*nFracs, p.Parallel, func(i int) (crashPointOut, error) {
		cc, dry, frac := cfgs[i/nFracs], drys[i/nFracs], fracs[i%nFracs]
		off := memsim.Time(frac * float64(dry.stats.Pause))
		g, pre, err := newCrashSweepEnv(cc, p.seed())
		if err != nil {
			return crashPointOut{}, err
		}
		run, err := g.CollectThroughCrash(threads, memsim.FaultPlan{CrashAtTime: dry.start + off, TornLine: i%nFracs%2 == 0}, pre)
		if err != nil {
			return crashPointOut{}, fmt.Errorf("crash sweep: %s frac %.3f: %w", cc.name, frac, err)
		}
		out := crashPointOut{phase: crashPhaseOf(dry.stats, off), outcome: "completed"}
		switch {
		case !run.Crashed && run.Err != nil:
			// The trigger found no chargeable operation left (tail of the
			// pause), so the collection completed and must be unharmed.
			return crashPointOut{}, fmt.Errorf("crash sweep: %s frac %.3f completed but corrupt: %w", cc.name, frac, run.Err)
		case run.Err != nil && cc.barriers:
			// Persist barriers guarantee recovery; any failure is a bug.
			return crashPointOut{}, fmt.Errorf("crash sweep: %s frac %.3f failed to recover under barriers: %w", cc.name, frac, run.Err)
		case run.Err != nil:
			// The documented-unrecoverable baseline: the failure is
			// flagged, never hidden.
			out.outcome = "unrecoverable"
		case run.Crashed:
			out.outcome = run.Recovery.Outcome.String()
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	// Outcome table: config x phase, with per-outcome counts.
	ot := &metrics.Table{
		Title:   fmt.Sprintf("Recovery outcome by crash phase (%d crash points, %d GC threads)", len(outs), threads),
		Columns: []string{"config", "phase", "points", "completed", "rolled-back", "rolled-forward", "unrecoverable", "verified"},
	}
	// Counts per (config, phase, outcome); outcome "" counts the points.
	type key struct {
		cfg            int
		phase, outcome string
	}
	n := map[key]int{}
	for i, o := range outs {
		n[key{i / nFracs, o.phase, ""}]++
		n[key{i / nFracs, o.phase, o.outcome}]++
	}
	flagged := 0
	for ci, cc := range cfgs {
		name := cc.name
		if !cc.barriers {
			name += " (no barriers)"
		}
		for _, ph := range crashPhases {
			c := func(outcome string) int { return n[key{ci, ph, outcome}] }
			if c("") == 0 {
				continue
			}
			ot.AddRow(name, ph, c(""), c("completed"), c("rolled-back"), c("rolled-forward"), c("unrecoverable"), c("")-c("unrecoverable"))
			flagged += c("unrecoverable")
		}
	}

	// Overhead table: what the persist barriers cost an uninterrupted
	// collection, from the dry runs.
	ht := &metrics.Table{
		Title:   "Persist-barrier overhead (uninterrupted collection)",
		Columns: []string{"config", "pause (ms)", "checkpoint (ms)", "barrier (ms)", "barrier share", "journal entries", "journal KiB", "lines flushed"},
	}
	var nonePause, adrPause memsim.Time
	for ci, cc := range cfgs {
		s := drys[ci].stats
		share := ratio(float64(s.Checkpoint+s.PersistBarrier), float64(s.Pause))
		ht.AddRow(cc.name, ms(s.Pause), ms(s.Checkpoint), ms(s.PersistBarrier),
			fmt.Sprintf("%.1f%%", 100*share), s.JournalEntries,
			float64(s.JournalBytes)/1024, s.PersistFlushedLines)
		switch cc.name {
		case "vanilla+none":
			nonePause = s.Pause
		case "vanilla+adr":
			adrPause = s.Pause
		}
	}

	rep := &Report{
		ID:     "crash-sweep",
		Title:  "Power-failure campaign: recovery outcome x phase x config",
		Tables: []*metrics.Table{ot, ht},
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"%d/%d crash points recovered to a heap isomorphic to the pre-GC graph; %d (all on the no-barrier baseline) were flagged unrecoverable",
		len(outs)-flagged, len(outs), flagged))
	if nonePause > 0 && adrPause > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"ADR journaling + flush barrier lengthen the vanilla pause by %.1f%%",
			100*(float64(adrPause)/float64(nonePause)-1)))
	}
	return rep, nil
}
