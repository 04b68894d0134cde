package gc

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

// FuzzCrashRecovery drives the whole fault-injection loop from a fuzzed
// crash point: kill the machine before the Nth NVM store of a collection
// (with fuzzed torn-line / keep-pending media behavior, a fuzzed
// persistence-enabled configuration, a fuzzed tier placement for the
// metadata/journal area, and optionally pre-poisoned media lines in the
// journal/meta area), materialize the post-crash image, recover, and
// require that (a) the post-crash scanner never calls a region consistent
// when recovery later proves data was lost, and (b) under ADR/eADR
// barriers recovery always reproduces the pre-GC graph — wherever the
// journal lives and however worn its media is.
func FuzzCrashRecovery(f *testing.F) {
	f.Add(int64(1), uint8(0), false, false, uint8(0), uint8(0))
	f.Add(int64(37), uint8(1), true, false, uint8(1), uint8(0))
	f.Add(int64(1000), uint8(2), true, true, uint8(2), uint8(0))
	f.Add(int64(25000), uint8(3), false, true, uint8(0), uint8(0))
	f.Add(int64(90000), uint8(2), true, false, uint8(1), uint8(0))
	// Power failure on worn media: hard UEs planted in the journal/meta
	// area before the crash.
	f.Add(int64(500), uint8(0), false, false, uint8(0), uint8(1))
	f.Add(int64(5000), uint8(2), true, false, uint8(1), uint8(3))
	f.Add(int64(40000), uint8(3), true, true, uint8(2), uint8(7))
	f.Fuzz(func(t *testing.T, storeN int64, cfgIdx uint8, torn, keepPending bool, metaPlace, poison uint8) {
		ccs := crashConfigs()
		cc := ccs[int(cfgIdx)%len(ccs)]
		if storeN < 0 {
			storeN = -storeN
		}
		storeN = storeN%(1<<17) + 1
		// 0: default two-tier machine; 1: three-tier machine, journal on
		// the extra persistent tier; 2: three-tier machine, journal on the
		// primary NVM tier (the extra tier merely present).
		metaTiers := []string{"", "nvm2", "nvm"}
		cc.shape = func(mc *memsim.Config, hc *heap.Config) {
			hc.Placement.Meta = metaTiers[int(metaPlace)%len(metaTiers)]
			if hc.Placement.Meta != "" {
				mc.Tiers = append(mc.Tiers, memsim.TierSpec{Name: "nvm2", Profile: memsim.OptaneProfile(), Persistent: true, Interleave: 6})
			}
		}
		h, m, g, pre := crashEnv(t, cc)
		if poison > 0 {
			// Pre-poison a few lines of the metadata/journal area: hard UEs
			// on worn journal media must not confuse the post-crash scanner
			// or block recovery.
			dev := h.MetaDevice()
			span := uint64(h.MetaBytes())
			for i := 0; i < int(poison)%4+1; i++ {
				off := (uint64(poison) * 0x9E3779B9 * uint64(i+1)) % span
				dev.PoisonLine(m.Now(), uint64(h.MetaBase())+off)
			}
		}
		// The store counter accumulated the populate phase's stores; plant
		// the crash relative to the collection's first store.
		base := m.Persist().Stats().TrackedStores
		run := collectThroughCrash(t, g, memsim.FaultPlan{
			CrashAtStore: base + storeN,
			TornLine:     torn,
			KeepPending:  keepPending,
		}, pre)
		// A failed recovery, a false "consistent" report, a corrupt region
		// under persistence barriers, or a collection of fewer than storeN
		// stores that broke the graph.
		if run.Err != nil || run.Recovery.Scan.Corrupt != 0 {
			t.Fatalf("%s store %d (crashed %v, report %+v): %v", cc.name, storeN, run.Crashed, run.Recovery, run.Err)
		}
	})
}

// TestHeaderMapModel checks the header map against a plain Go map under
// random operation sequences: a Put for a key must return either its own
// value or whatever value the map already agreed on; Get must never
// contradict an earlier agreement.
func TestHeaderMapModel(t *testing.T) {
	f := func(ops []uint16, seed uint64) bool {
		h, m := hmTestHeap(t)
		hm, err := NewHeaderMap(h, 4<<10) // small: exercises the full path
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewPCG(seed, 42))
		model := make(map[heap.Address]heap.Address)
		okAll := true
		m.Run(1, func(w *memsim.Worker) {
			for _, op := range ops {
				key := heap.Address(0x4000_0000 + uint64(op%64)*8)
				if op%3 == 0 {
					got := hm.Get(w, key)
					want, known := model[key]
					if known && got != 0 && got != want {
						okAll = false
						return
					}
					if !known && got != 0 {
						okAll = false
						return
					}
				} else {
					val := heap.Address(0x5000_0000 + uint64(rng.Uint32())*8)
					got := hm.Put(w, key, val)
					if got == 0 {
						continue // map full for this key: NVM fallback
					}
					if want, known := model[key]; known {
						if got != want {
							okAll = false
							return
						}
					} else {
						if got != val {
							okAll = false
							return
						}
						model[key] = val
					}
				}
			}
		})
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkStackModel checks the deque against a slice model under random
// push/pop/steal sequences.
func TestWorkStackModel(t *testing.T) {
	f := func(ops []uint8) bool {
		var s workStack
		var model []heap.Address
		next := heap.Address(1)
		for _, op := range ops {
			switch op % 3 {
			case 0: // push
				s.push(next)
				model = append(model, next)
				next++
			case 1: // pop (LIFO end)
				got, ok := s.pop()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					want := model[len(model)-1]
					model = model[:len(model)-1]
					if got != want {
						return false
					}
				}
			case 2: // steal (FIFO end)
				got, ok := s.steal()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					want := model[0]
					model = model[1:]
					if got != want {
						return false
					}
				}
			}
			if s.size() != len(model) || s.empty() != (len(model) == 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomCyclicGraphsSurviveEveryConfig evacuates randomized object
// graphs — including cycles, cross-links, shared substructure and
// self-references — under randomized option sets and thread counts, and
// checks graph preservation plus heap invariants.
func TestRandomCyclicGraphsSurviveEveryConfig(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0xFACE))
		h, m := testEnv(t)
		node, _ := h.Klasses.Define("node", 6, []int32{2, 3})
		arr, _ := h.Klasses.DefineArray("ref[]", true)

		var objs []heap.Address
		m.Run(1, func(w *memsim.Worker) {
			n := 500 + rng.IntN(2500)
			for i := 0; i < n; i++ {
				var a heap.Address
				var ok bool
				if rng.IntN(10) == 0 {
					a, ok = h.AllocateEden(w, arr, int64(4+2*rng.IntN(8)))
				} else {
					a, ok = h.AllocateEden(w, node, 6)
				}
				if !ok {
					break
				}
				objs = append(objs, a)
			}
			// Random edges, including back-edges (cycles) and self-loops.
			for _, a := range objs {
				k, size := h.PeekObject(a)
				for off := int64(heap.HeaderWords); off < size; off++ {
					if !k.IsRefSlot(off, size) {
						continue
					}
					switch rng.IntN(4) {
					case 0: // nil
					case 1: // self-loop
						h.SetRef(w, a, off, a)
					default:
						h.SetRef(w, a, off, objs[rng.IntN(len(objs))])
					}
				}
			}
			// A random subset of roots.
			for _, a := range objs {
				if rng.IntN(6) == 0 {
					h.Roots.Add(w, a)
				}
			}
		})

		opt := Options{
			WriteCache:          rng.IntN(2) == 0,
			HeaderMap:           rng.IntN(2) == 0,
			NonTemporal:         rng.IntN(2) == 0,
			Prefetch:            rng.IntN(2) == 0,
			BFS:                 rng.IntN(3) == 0,
			HeaderMapMinThreads: 1,
			WriteCacheBytes:     int64(rng.IntN(3)-1) * 64 << 10, // -64K (unlimited), 0 (default), 64K
		}
		if opt.WriteCache && rng.IntN(2) == 0 {
			opt.AsyncFlush = true
		}
		col, err := NewG1(h, opt)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		threads := 1 + rng.IntN(16)
		before := liveGraph(t, h)
		for gcs := 0; gcs < 2; gcs++ {
			if _, err := col.Collect(threads); err != nil {
				t.Fatalf("trial %d (opts %+v, threads %d): %v", trial, opt, threads, err)
			}
			if err := graphDiff(t, h, before); err != nil {
				t.Fatalf("trial %d (opts %+v, threads %d): graph changed: %v", trial, opt, threads, err)
			}
			if err := h.CheckInvariants(); err != nil {
				t.Fatalf("trial %d (opts %+v, threads %d): %v", trial, opt, threads, err)
			}
		}
		if h.FreeCacheRegions() != h.Config().CacheRegions {
			t.Fatalf("trial %d: cache regions leaked", trial)
		}
	}
}

// TestRegionMappingBijection verifies the write cache's region mapping:
// while a collection is running, every cache region maps to a distinct
// NVM region, and no NVM region is mapped twice. Checked after GC via the
// surviving regions (mappings must be fully dissolved).
func TestRegionMappingBijection(t *testing.T) {
	h, m := testEnv(t)
	populate(t, h, m, defaultSpec())
	g, _ := NewG1(h, WithWriteCache())
	collectAndVerify(t, h, g, 8)
	for _, r := range h.Regions() {
		if r.MapTo != nil {
			t.Fatalf("region %d still mapped after GC", r.Index)
		}
	}
}

// TestPauseTimeMonotoneInLiveSet checks a basic sanity property: more
// live data means a longer pause (same config, same threads).
func TestPauseTimeMonotoneInLiveSet(t *testing.T) {
	pause := func(rootEvery int) memsim.Time {
		h, m := testEnv(t)
		node, _ := h.Klasses.Define("node", 6, []int32{2, 3})
		m.Run(1, func(w *memsim.Worker) {
			i := 0
			for {
				a, ok := h.AllocateEden(w, node, 6)
				if !ok {
					return
				}
				if i%rootEvery == 0 {
					h.Roots.Add(w, a)
				}
				i++
			}
		})
		g, _ := NewG1(h, Vanilla())
		s, err := g.Collect(8)
		if err != nil {
			t.Fatal(err)
		}
		return s.Pause
	}
	small := pause(64)
	big := pause(4)
	if big <= small {
		t.Fatalf("16x live set should lengthen the pause: %d vs %d", small, big)
	}
}
