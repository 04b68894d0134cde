package heap

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"nvmgc/internal/memsim"
)

// The address space is a table of lazily materialised pages; these tests
// hold it to what the flat zeroed slab it replaced did.

const poison = 0xDEAD_DEAD_DEAD_DEAD

// flatRef is the reference model: the flat zeroed word slab. Its copy is
// the builtin's memmove, whatever the overlap.
type flatRef struct {
	base  Address
	words []uint64
}

func (f *flatRef) at(a Address) *uint64 { return &f.words[(a-f.base)/WordBytes] }

func (f *flatRef) span(a Address, n int64) []uint64 {
	i := (a - f.base) / WordBytes
	return f.words[i : i+Address(n)]
}

func (f *flatRef) fill(a Address, n int64, v uint64) {
	s := f.span(a, n)
	for i := range s {
		s[i] = v
	}
}

// pagedHeap builds a three-page space whose one 8 KiB region straddles the
// first page boundary, whose aux area ends mid-line, and whose meta area
// leaves the last page mostly unused and ends on a line, as a persistent
// heap must.
func pagedHeap(t *testing.T, mutate func(*memsim.Machine)) (*Heap, *memsim.Machine) {
	t.Helper()
	mc := memsim.DefaultConfig()
	mc.TraceBucket = 0
	m := memsim.NewMachine(mc)
	if mutate != nil {
		mutate(m)
	}
	h, err := New(m, Config{
		RegionBytes: 2 * PageBytes, HeapRegions: 1,
		AuxBytes: 2<<10 + 24, RootSlots: 16, MetaBytes: 40,
		Placement: PlacementPolicy{Eden: "nvm", Survivor: "nvm", Old: "nvm", Meta: "nvm"}, Poison: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.pages) != 3 {
		t.Fatalf("test geometry spans %d pages, want 3", len(h.pages))
	}
	return h, m
}

func materialised(h *Heap) (n int) {
	for _, p := range h.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// TestChunkedStoreMatchesFlatModel drives every store path of the heap and
// the flat model with one seeded random stream and compares the whole
// space through Peek after every step.
func TestChunkedStoreMatchesFlatModel(t *testing.T) {
	h, m := pagedHeap(t, nil)
	ref := &flatRef{base: h.base, words: make([]uint64, (h.metaEnd-h.base)/WordBytes)}
	total := int64(len(ref.words))
	same := func(step int, what string) bool {
		for i, want := range ref.words {
			if got := h.Peek(h.base + Address(i)*WordBytes); got != want {
				t.Errorf("step %d (%s): word %d (page %d) = %#x, model has %#x", step, what, i, i>>pageLog, got, want)
				return false
			}
		}
		return true
	}

	// The rules the random stream cannot be relied on to hit while a page
	// is still untouched.
	far := h.base + 2*pageWords*WordBytes + 64 // in the last page
	if h.Peek(far) != 0 || materialised(h) != 0 {
		t.Fatalf("a load materialised a page (%d) or read non-zero", materialised(h))
	}
	h.fill(h.span(h.base, total), int(total), 0)
	h.CommitCopy(h.base+(pageWords-100)*WordBytes, far, 200) // onto two pages
	if materialised(h) != 0 {
		t.Fatalf("zero-fill and a copy between untouched pages materialised %d pages", materialised(h))
	}
	h.Poke(h.base+16, 7)
	*ref.at(h.base + 16) = 7
	h.CommitCopy(h.base, far, 8) // untouched source over a touched destination
	ref.fill(h.base, 8, 0)
	if materialised(h) != 1 || !same(-1, "copy from an untouched page") {
		t.Fatalf("copy from an untouched page: %d pages materialised", materialised(h))
	}

	steps := 600
	if testing.Short() {
		steps = 150
	}
	rng := rand.New(rand.NewSource(21))
	// Half of all addresses land within 64 words of a page boundary or of
	// either end of the space.
	pick := func(room int64) Address {
		i := rng.Int63n(total - room + 1)
		if rng.Intn(2) == 0 {
			edge := int64(rng.Intn(len(h.pages)+1)) * pageWords
			i = min(max(edge+rng.Int63n(129)-64-room*int64(rng.Intn(2)), 0), total-room)
		}
		return h.base + Address(i)*WordBytes
	}
	length := func() int64 {
		switch rng.Intn(8) {
		case 0:
			return rng.Int63n(pageWords + pageWords/2) // may cross two boundaries
		case 1:
			return 0
		}
		return 1 + rng.Int63n(200)
	}
	k, _ := h.Klasses.DefineArray("blob", false)
	ops := []string{"Poke", "CommitWord", "CAS", "CommitCopy", "MoveWordsRaw", "overlapping copy", "initObject", "zero fill", "poison fill"}
	m.Run(1, func(w *memsim.Worker) {
		for step := 0; step < steps; step++ {
			op := rng.Intn(len(ops))
			switch n, v := length(), rng.Uint64(); op {
			case 0:
				a := pick(1)
				h.Poke(a, v)
				*ref.at(a) = v
			case 1:
				a := pick(1)
				h.CommitWord(a, v)
				*ref.at(a) = v
			case 2: // the expected value is right every other time
				a := pick(1)
				old := *ref.at(a) ^ uint64(step&1)
				cur, ok := cas(h, w, a, old, v)
				if cur != *ref.at(a) || ok != (step&1 == 0) {
					t.Errorf("step %d: CAS at %#x saw %#x, %v; model has %#x", step, a, cur, ok, *ref.at(a))
					return
				}
				if ok {
					*ref.at(a) = v
				}
			case 3, 4, 5:
				dst, src := pick(n), pick(n)
				if op == 5 { // source and destination a few words apart, either way round
					dst = min(max(src+Address(rng.Int63n(2*n+1)-n)*WordBytes, h.base), h.metaEnd-Address(n)*WordBytes)
				}
				if op == 4 {
					h.MoveWordsRaw(dst, src, n)
				} else {
					h.CommitCopy(dst, src, n)
				}
				copy(ref.span(dst, n), ref.span(src, n))
			case 6:
				n += HeaderWords
				a := pick(n)
				h.initObject(nil, a, k, n)
				ref.fill(a, n, 0)
				*ref.at(MarkAddr(a)), *ref.at(InfoAddr(a)) = MarkWithAge(0), MakeInfo(k.ID, n)
			case 7, 8:
				a, v := pick(n), uint64(poison)*uint64(op-7)
				h.fill(h.span(a, n), int(n), v)
				ref.fill(a, n, v)
			}
			if !same(step, ops[op]) {
				return
			}
		}
	})

	// Retire poisons a region that lies in two pages.
	r, ok := h.ClaimRegion(RegionOld)
	if !ok {
		t.Fatal("no region to claim")
	}
	h.Retire(r)
	ref.fill(r.Start, int64(r.End-r.Start)/WordBytes, poison)
	same(steps, "Retire")
}

// TestNewHeapIsLazy pins what the page table is for: a heap costs host
// memory for the pages its run stores into, and the persistence domain's
// raw accessors work on pages that do not exist yet.
func TestNewHeapIsLazy(t *testing.T) {
	m := memsim.NewMachine(memsim.DefaultConfig())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h, err := New(m, DefaultConfig())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("heap.New(DefaultConfig()) allocated %d bytes, want < 1 MiB", got)
	}
	if materialised(h) != 0 {
		t.Fatalf("a new heap has %d pages materialised", materialised(h))
	}

	// Filling eden regions materialises the pages they overlap and no other.
	arr, _ := h.Klasses.DefineArray("long[]", false)
	for len(h.eden) < 40 || h.edenCur.End-h.edenCur.Top >= 512*WordBytes {
		if _, ok := h.AllocateEden(nil, arr, 512); !ok {
			t.Fatal("eden exhausted early")
		}
	}
	overlapped := map[int]bool{}
	for _, r := range h.eden {
		for c := h.index(r.Start) >> pageLog; c <= h.index(r.End-WordBytes)>>pageLog; c++ {
			overlapped[c] = true
		}
	}
	for c := range h.pages {
		if h.pages[c] != nil && !overlapped[c] {
			t.Errorf("page %d is materialised but no eden region overlaps it", c)
		}
	}
	if got := materialised(h); got == 0 || got > len(overlapped) {
		t.Fatalf("%d eden regions materialised %d pages, want 1..%d", len(h.eden), got, len(overlapped))
	}

	// A crash reverts a line through rawPeek/rawPoke: the shadow of a line
	// in a page never stored to is zeros, even in a shadow slot that last
	// held nonzero words, that of a line in a page with host memory is its
	// persisted words, and restoring either reads back so.
	ph, pm := pagedHeap(t, func(m *memsim.Machine) { m.EnablePersist(m.NVM, false) })
	first, second, kept := ph.base+64, ph.base+PageBytes+64, ph.MetaBase() // pages 0, 1 and 2
	pd := pm.Persist()
	ph.Poke(kept, 5)
	pd.PersistAll()
	ph.Poke(kept, 6) // its shadow slot, holding the 5, is free again after
	pd.PersistAll()
	pm.InjectFault(memsim.FaultPlan{CrashAtStore: 3})
	pm.Run(1, func(w *memsim.Worker) {
		ph.WriteWord(w, first, 7)
		ph.WriteWord(w, kept, 8)
		ph.WriteWord(w, second, 9) // the crash strikes before it applies
		t.Error("store past the crash trigger executed")
	})
	if ph.Peek(first) != 7 || ph.Peek(kept) != 8 || materialised(ph) != 2 {
		t.Fatalf("before the crash: words %d and %d, %d pages", ph.Peek(first), ph.Peek(kept), materialised(ph))
	}
	rep, err := pm.MaterializeCrash()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RevertedLines != 2 || ph.Peek(kept) != 6 || ph.Peek(second) != 0 || ph.pages[1] != nil {
		t.Fatalf("after the crash: %d lines reverted, words %d (want 6) and %d, second page materialised: %v",
			rep.RevertedLines, ph.Peek(kept), ph.Peek(second), ph.pages[1] != nil)
	}
	for a := first; a < first+memsim.LineSize; a += WordBytes {
		if ph.Peek(a) != 0 {
			t.Fatalf("after the crash: word %#x of a line never stored to before reads %d", a, ph.Peek(a))
		}
	}
}

// TestZeroStoreMaterialisesNothing: a word of a page never stored to already
// reads 0, so no path that stores 0 there gives the page host memory, nor
// does copying from another such page; the first nonzero store does.
func TestZeroStoreMaterialisesNothing(t *testing.T) {
	h, m := pagedHeap(t, nil)
	a := h.base + PageBytes + 8 // in the middle page
	src := h.base + 256         // in the first page
	h.Poke(a, 0)
	h.CommitWord(a, 0)
	h.PokeZero(a, 16)
	h.CommitCopy(a, src, 16)
	h.MoveWordsRaw(a, src, 16)
	h.CommitCopy(a+WordBytes, a, 16) // overlapping: word by word, back to front
	m.Run(1, func(w *memsim.Worker) {
		if _, ok := cas(h, w, a, 0, 0); !ok {
			t.Error("CAS 0 -> 0 failed on a page never stored to")
		}
		h.WriteWord(w, a+64, 0)
		h.CopyWords(w, a, src, 16)
	})
	if h.Materialised(a) || materialised(h) != 0 {
		t.Fatalf("zero stores materialised the page: %v, %d pages in all", h.Materialised(a), materialised(h))
	}
	h.Poke(a, 3)
	if !h.Materialised(a) || h.Peek(a) != 3 || h.Peek(a+WordBytes) != 0 {
		t.Fatalf("the first nonzero store: materialised %v, words %d %d", h.Materialised(a), h.Peek(a), h.Peek(a+WordBytes))
	}
}

// TestNewAtSpaceCap: the largest address space New accepts, 4 GiB, costs
// its page table of 2^20 entries and little more up front.
func TestNewAtSpaceCap(t *testing.T) {
	m := memsim.NewMachine(memsim.DefaultConfig())
	cfg := Config{RegionBytes: 1 << 30, HeapRegions: 3, AuxBytes: 1 << 30, RootSlots: 16, EdenRegions: 1, SurvivorRegions: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h, err := New(m, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.pages) != 1<<20 {
		t.Fatalf("a 4 GiB space has %d pages, want 2^20", len(h.pages))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 9e6 {
		t.Fatalf("New at the space cap allocated %d bytes, want < 9 MB", got)
	}
}

// TestRangeOpsCheckBothEnds: a multi-word operation that runs off either
// end of the address space, or has a negative length, dies with the heap's
// own message — not a slice-bounds runtime error, and not by materialising
// or indexing past the page table.
func TestRangeOpsCheckBothEnds(t *testing.T) {
	h, m := pagedHeap(t, nil)
	k, _ := h.Klasses.DefineArray("blob", false)
	lo, hi := h.base, h.metaEnd
	charged := func(f func(w *memsim.Worker)) func() { return func() { m.Run(1, f) } }
	ok := func(name string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s: panicked: %v", name, r)
			}
		}()
		f()
	}
	ok("empty copy at both ends", func() { h.CommitCopy(lo, hi, 0); h.MoveWordsRaw(hi, lo, 0) })
	ok("copy ending at the last word", func() { h.CommitCopy(hi-80, lo, 10); h.CommitCopy(lo, hi-80, 10) })
	ok("object ending at the last word", func() { h.initObject(nil, hi-80, k, 10) })
	ok("zeroing up to the last word", func() { h.PokeZero(hi-80, 10); h.PokeZero(hi, 0) })

	for _, c := range []struct {
		name string
		f    func()
	}{
		{"destination past the end", func() { h.CommitCopy(hi-72, lo, 10) }},
		{"source past the end", func() { h.CommitCopy(lo, hi-72, 10) }},
		{"destination below the start", func() { h.MoveWordsRaw(lo-8, lo, 4) }},
		{"source below the start", func() { h.MoveWordsRaw(lo, lo-8, 4) }},
		{"negative length", func() { h.CommitCopy(lo+800, lo, -1) }},
		{"length that wraps", func() { h.MoveWordsRaw(lo, lo+8, 1<<61) }},
		{"start past the end", func() { h.CommitCopy(hi+8, lo, 0) }},
		{"object past the end", func() { h.initObject(nil, hi-72, k, 10) }},
		{"fill past the end", func() { h.fill(h.span(hi-8, 2), 2, poison) }},
		{"zeroing past the end", func() { h.PokeZero(hi-72, 10) }},
		{"zeroing from below the start", func() { h.PokeZero(lo-8, 4) }},
		{"zeroing a negative length", func() { h.PokeZero(lo, -1) }},
		{"charged copy past the end", charged(func(w *memsim.Worker) { h.CopyWords(w, hi-72, lo, 10) })},
		{"streaming copy from below the start", charged(func(w *memsim.Worker) { h.CopyWordsNT(w, lo, lo-8, 4) })},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "heap: address ") || !strings.HasSuffix(msg, "out of range") {
					t.Errorf("%s: recovered %q, want the heap's out-of-range panic", c.name, msg)
				}
			}()
			c.f()
		}()
	}
	if materialised(h) > 2 { // the in-range cases above touch the first and last page
		t.Fatalf("rejected operations materialised pages: %d", materialised(h))
	}
}

// TestPokeZeroMatchesPokeLoop: the bulk clear is the per-word Poke(…, 0)
// loop it replaces. It materialises no page that was never stored to, and
// on a range the persistence domain tracks it leaves the same dirty lines
// and, after a crash that tears the frontier line, the same image.
func TestPokeZeroMatchesPokeLoop(t *testing.T) {
	h, _ := pagedHeap(t, nil)
	h.PokeZero(h.base, 2*pageWords+5)
	if materialised(h) != 0 {
		t.Fatalf("zeroing untouched pages materialised %d", materialised(h))
	}

	const words = 203
	run := func(bulk bool) (dirty []uint64, rep memsim.CrashReport, image []uint64) {
		h, m := pagedHeap(t, func(m *memsim.Machine) { m.EnablePersist(m.NVM, false) })
		// Starts and ends mid-line and crosses a page boundary.
		from := h.base + pageWords*WordBytes - 100*WordBytes + 24
		for i := int64(-20); i < words+20; i++ {
			h.Poke(from+Address(i*WordBytes), uint64(i)+1)
		}
		m.Persist().PersistAll()
		h.Poke(from+40*WordBytes, 99) // one line dirty before the clear
		if bulk {
			h.PokeZero(from, words)
		} else {
			for i := int64(0); i < words; i++ {
				h.Poke(from+Address(i*WordBytes), 0)
			}
		}
		dirty = m.Persist().DirtyLines()
		m.InjectFault(memsim.FaultPlan{CrashAtStore: 1, TornLine: true})
		m.Run(1, func(w *memsim.Worker) { h.WriteWord(w, h.base, 1) })
		rep, err := m.MaterializeCrash()
		if err != nil {
			t.Fatal(err)
		}
		for a := from - 20*WordBytes; a < from+Address(words+20)*WordBytes; a += WordBytes {
			image = append(image, h.Peek(a))
		}
		return dirty, rep, image
	}
	wantDirty, wantRep, wantImage := run(false)
	gotDirty, gotRep, gotImage := run(true)
	if !slices.Equal(gotDirty, wantDirty) {
		t.Errorf("dirty lines %x, want %x", gotDirty, wantDirty)
	}
	if gotRep != wantRep {
		t.Errorf("crash report %+v, want %+v", gotRep, wantRep)
	}
	if !slices.Equal(gotImage, wantImage) {
		t.Errorf("crash image differs from the Poke loop's:\n got %v\nwant %v", gotImage, wantImage)
	}
	if !wantRep.TornLine || wantRep.RevertedLines == 0 {
		t.Fatalf("the crash tore no line or reverted none (%+v): the case exercises nothing", wantRep)
	}
}

// TestNewRejectsHostileConfig: sizes no geometry can have come back as
// errors — not as a makeslice panic, a wrapped sum, or a heap whose areas
// end before they start.
func TestNewRejectsHostileConfig(t *testing.T) {
	m := memsim.NewMachine(memsim.DefaultConfig())
	for _, c := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"negative cache pool", func(c *Config) { c.CacheRegions = -5 }, "outside"},
		{"negative eden", func(c *Config) { c.EdenRegions = -1 }, "outside"},
		{"negative survivors", func(c *Config) { c.SurvivorRegions = -1 }, "outside"},
		{"negative root slots", func(c *Config) { c.RootSlots = -1 }, "outside"},
		{"negative aux", func(c *Config) { c.AuxBytes = -8 }, "outside"},
		{"negative meta", func(c *Config) { c.MetaBytes = -8 }, "outside"},
		{"2^40 regions", func(c *Config) { c.HeapRegions = 1 << 40 }, "exceeds"},
		{"cache pool past the cap", func(c *Config) { c.CacheRegions = 1 << 30 }, "exceeds"},
		{"address space of 4 GiB and a word", func(c *Config) {
			c.HeapRegions = int((1<<32-c.AuxBytes)/c.RegionBytes) - c.CacheRegions
			c.MetaBytes = WordBytes
		}, "exceeds"},
		{"region count times size wraps", func(c *Config) { c.RegionBytes, c.HeapRegions = 1<<62, 4 }, "exceeds"},
		{"aux past the cap", func(c *Config) { c.AuxBytes = 1 << 62 }, "outside"},
		{"meta past the cap", func(c *Config) { c.MetaBytes = 1<<40 + 8 }, "outside"},
		{"root slots whose bytes wrap", func(c *Config) { c.RootSlots = 1<<61 + 1 }, "outside"},
		{"aux not in words", func(c *Config) { c.AuxBytes += 4 }, "multiples of 8"},
		{"meta not in words", func(c *Config) { c.MetaBytes = 1<<20 + 1 }, "multiples of 8"},
		{"aux too small for the roots", func(c *Config) { c.AuxBytes = 8 }, "root set does not fit"},
		{"root slots past the aux area", func(c *Config) { c.RootSlots = 1 << 40 }, "root set does not fit"},
	} {
		cfg := DefaultConfig()
		c.mutate(&cfg)
		h, err := New(m, cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: New = %v, %v; want an error mentioning %q", c.name, h != nil, err, c.want)
		}
	}
	if _, err := New(m, DefaultConfig()); err != nil {
		t.Fatalf("the default geometry is rejected: %v", err)
	}
}

// TestPersistNeedsLineAlignedHeap: the persistence domain tracks whole
// lines, so a persistent heap must end on a line; one that ends 8 bytes
// past one is an error, not a domain that would peek past the heap.
func TestPersistNeedsLineAlignedHeap(t *testing.T) {
	m := memsim.NewMachine(memsim.DefaultConfig())
	m.EnablePersist(m.NVM, false)
	cfg := Config{RegionBytes: 2 << 20, HeapRegions: 1, AuxBytes: 64 << 10, RootSlots: 16, MetaBytes: 72, Poison: true}
	if _, err := New(m, cfg); err == nil || !strings.Contains(err.Error(), "whole 64 B lines") {
		t.Fatalf("heap ending off a line: err = %v", err)
	}
	cfg.MetaBytes = 64
	if _, err := New(m, cfg); err != nil {
		t.Fatal(err)
	}
}
