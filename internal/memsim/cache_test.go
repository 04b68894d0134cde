package memsim

import "testing"

func newTestCache() *Cache {
	return NewCache(64*1024, 8, 15)
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := newTestCache()
	d := NewDevice("nvm", OptaneProfile(), 0)
	hit, _ := c.touchLine(d, 0x1000, 0, false, false)
	if hit {
		t.Fatal("first access should miss")
	}
	hit, _ = c.touchLine(d, 0x1000, 1, false, false)
	if !hit {
		t.Fatal("second access should hit")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestPredictorSeparatesSetLines: lines of one set whose numbers agree
// modulo the cache's line count shared one predictor byte when there was a
// byte per line, so each touch overwrote the others' guess. With
// predPerLine = assoc bytes a line, a whole set of them each keep their own
// byte: re-touching any of them takes the predicted hit path, no set scan.
func TestPredictorSeparatesSetLines(t *testing.T) {
	cfg := DefaultConfig()
	c := NewCache(cfg.LLCBytes, cfg.LLCAssoc, cfg.LLCHitLatency)
	d := NewDevice("nvm", OptaneProfile(), 0)
	lines := uint64(c.numSets * c.assoc) // the predictor's size at a byte a line
	n := c.assoc
	for i := range n {
		c.touchLine(d, (5+uint64(i)*lines)*LineSize, Time(i), false, false)
	}
	for i := range n {
		line := 5 + uint64(i)*lines
		if _, ok := c.predicted(int(line&c.setMask)*c.assoc, line, lineKey(d, line*LineSize)); !ok {
			t.Errorf("line %d of %d sharing a set: the predictor does not name its way", i, n)
		}
	}
}

func TestCacheDistinguishesDevices(t *testing.T) {
	c := newTestCache()
	d1 := NewDevice("a", DRAMProfile(), 0)
	d2 := NewDevice("b", OptaneProfile(), 0)
	c.touchLine(d1, 0x40, 0, false, false)
	hit, _ := c.touchLine(d2, 0x40, 1, false, false)
	if hit {
		t.Fatal("same address on a different device must not hit")
	}
}

func TestCacheEvictionWritesBackDirty(t *testing.T) {
	c := NewCache(8*64, 1, 15) // direct-mapped, 8 sets
	d := NewDevice("nvm", OptaneProfile(), 0)
	c.touchLine(d, 0, 0, true, false) // dirty line in set 0
	before := d.Stats().WriteBytes
	// Same set (stride = numSets*64 = 512), forces eviction.
	c.touchLine(d, 512, 1, false, false)
	after := d.Stats().WriteBytes
	// One 64 B line, amplified to the 256 B NVM access granularity.
	if after-before != 256 {
		t.Fatalf("dirty eviction should write back one amplified line, wrote %d", after-before)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestCacheCleanEvictionNoWriteback(t *testing.T) {
	c := NewCache(8*64, 1, 15)
	d := NewDevice("nvm", OptaneProfile(), 0)
	c.touchLine(d, 0, 0, false, false)
	before := d.Stats().WriteBytes
	c.touchLine(d, 512, 1, false, false)
	if d.Stats().WriteBytes != before {
		t.Fatal("clean eviction must not write back")
	}
}

func TestTouchRangeCountsLines(t *testing.T) {
	c := newTestCache()
	d := NewDevice("nvm", OptaneProfile(), 0)
	miss, _ := c.touchRange(d, 0x100, 256, 0, false, false) // 4 lines
	if miss != 4 {
		t.Fatalf("expected 4 missing lines, got %d", miss)
	}
	miss, _ = c.touchRange(d, 0x100, 256, 1, false, false)
	if miss != 0 {
		t.Fatalf("expected all hits, got %d misses", miss)
	}
	// Unaligned range spanning two lines.
	miss, _ = c.touchRange(d, 0x3f, 2, 2, false, false)
	if miss != 2 {
		t.Fatalf("unaligned 2-byte access spans 2 lines, got %d misses", miss)
	}
}

func TestPrefetchInstallsInFlightLines(t *testing.T) {
	c := newTestCache()
	d := NewDevice("nvm", OptaneProfile(), 0)
	c.installPrefetch(d, 0x2000, 64, 0, 500)
	hit, ready := c.touchLine(d, 0x2000, 100, false, false)
	if !hit {
		t.Fatal("prefetched line should be present")
	}
	if ready != 500 {
		t.Fatalf("ready = %d, want 500", ready)
	}
}

func TestInvalidateRangeDropsDirtyData(t *testing.T) {
	c := newTestCache()
	d := NewDevice("nvm", OptaneProfile(), 0)
	c.touchLine(d, 0x80, 0, true, false)
	c.invalidateRange(d, 0x80, 64)
	hit, _ := c.touchLine(d, 0x80, 1, false, false)
	if hit {
		t.Fatal("invalidated line must miss")
	}
	// And the invalidation must not have written back (NT overwrites).
	if c.Stats().Writebacks != 0 {
		t.Fatal("invalidate must not write back")
	}
}

func TestMissingLinesIsReadOnly(t *testing.T) {
	c := newTestCache()
	d := NewDevice("nvm", OptaneProfile(), 0)
	if got := c.missingLines(d, 0, 256); got != 4 {
		t.Fatalf("missingLines = %d, want 4", got)
	}
	// State unchanged: a real access still misses.
	hit, _ := c.touchLine(d, 0, 0, false, false)
	if hit {
		t.Fatal("missingLines must not install lines")
	}
}

func TestCacheCapacity(t *testing.T) {
	c := NewCache(1<<20, 16, 10)
	if got := c.numSets * c.assoc * LineSize; got != 1<<20 {
		t.Fatalf("capacity = %d", got)
	}
	// Non-power-of-two set counts round down.
	c = NewCache(3*64*4, 4, 10)
	if got := c.numSets * c.assoc * LineSize; got != 2*64*4 {
		t.Fatalf("capacity = %d", got)
	}
}

func TestCacheLRUWithinSet(t *testing.T) {
	c := NewCache(2*64*2, 2, 10) // 2 sets, 2-way
	d := NewDevice("nvm", OptaneProfile(), 0)
	// Fill set 0 (stride 128).
	c.touchLine(d, 0, 0, false, false)
	c.touchLine(d, 128, 1, false, false)
	// Touch line 0 to make 128 the LRU.
	c.touchLine(d, 0, 2, false, false)
	// New line evicts 128, not 0.
	c.touchLine(d, 256, 3, false, false)
	if hit, _ := c.touchLine(d, 0, 4, false, false); !hit {
		t.Fatal("MRU line should survive")
	}
	if hit, _ := c.touchLine(d, 128, 5, false, false); hit {
		t.Fatal("LRU line should have been evicted")
	}
}

func TestPrefetchOverwriteOnWrapIsCounted(t *testing.T) {
	c := newTestCache()
	d := NewDevice("nvm", OptaneProfile(), 0)
	// Stage exactly prefetchBufferSize in-flight lines, then one more:
	// the FIFO wraps and must overwrite the oldest still-valid entry.
	base := uint64(1 << 30)
	for i := 0; i < prefetchBufferSize; i++ {
		c.installPrefetch(d, base+uint64(i)*LineSize, 1, 0, 500)
	}
	if got := c.Stats().PrefetchOverwrites; got != 0 {
		t.Fatalf("no wrap yet, PrefetchOverwrites = %d", got)
	}
	extra := base + prefetchBufferSize*LineSize
	c.installPrefetch(d, extra, 1, 0, 500)
	if got := c.Stats().PrefetchOverwrites; got != 1 {
		t.Fatalf("PrefetchOverwrites = %d, want 1", got)
	}
	// The overwritten (oldest) line is gone from the staging index...
	if c.present(base/LineSize, lineKey(d, base)) {
		t.Fatal("overwritten line still indexed")
	}
	// ...the newcomer is staged...
	if !c.present(extra/LineSize, lineKey(d, extra)) {
		t.Fatal("new line not staged")
	}
	// ...and a demand access to the victim misses (the prefetch was wasted).
	if hit, _ := c.touchLine(d, base, 600, false, false); hit {
		t.Fatal("victim of the overwrite must miss")
	}
	// Taking an entry frees its slot without counting an overwrite.
	before := c.Stats().PrefetchOverwrites
	if _, ok := c.pbufTake(lineKey(d, extra)); !ok {
		t.Fatal("pbufTake failed")
	}
	if got := c.Stats().PrefetchOverwrites; got != before {
		t.Fatalf("pbufTake must not count overwrites, got %d", got)
	}
}
