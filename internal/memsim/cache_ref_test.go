package memsim

// This file is the reference model for the differential test in
// cache_diff_test.go: the array-of-structs LLC exactly as it stood before
// the stamp-word layout replaced it (one refLine per way, an early-exit key
// scan, an arg-min over lastUse, a single-entry mru shortcut), with only
// the type names changed. It is deliberately not kept in step with
// cache.go; its value is that it is the older, obviously-LRU statement of
// the same behaviour.

type refLine struct {
	dev      *Device
	tag      uint64 // line address (addr &^ (LineSize-1))
	dirty    bool
	seqDirty bool // dirtied by a streaming store: eviction coalesces
	valid    bool
	readyAt  Time // when an in-flight (prefetched) line becomes usable
	lastUse  Time
}

type refPrefetchEntry struct {
	dev     *Device
	tag     uint64
	readyAt Time
	valid   bool
}

// refPbufKey identifies a staged line for the O(1) prefetch-buffer index.
type refPbufKey struct {
	dev *Device
	tag uint64
}

// refCache is a shared, set-associative, write-allocate/write-back last-level
// cache model sitting in front of all devices. Dirty evictions generate
// asynchronous device writes (charged to the device channel only).
// Non-temporal stores bypass and invalidate. Software prefetches land in
// a small FIFO staging buffer; a demand access promotes the line into the
// cache and pays only the remaining transfer time.
type refCache struct {
	assoc   int
	numSets int
	setMask uint64
	lines   []refLine // numSets * assoc
	// keys mirrors lines with one packed (device, line-address) word per
	// way (see refLineKey; 0 = invalid), so the per-access way scan touches
	// a dense tag array — two cache lines for a 16-way set — instead of
	// striding through the full refLine structs. Every site that
	// (in)validates or retags a line updates both arrays.
	keys       []uint64
	hitLatency Time

	// mru is the index (into keys/lines) of the most recently touched
	// line. GC traffic is heavily line-local — header then payload, CAS
	// read then write, object init then reference init — so a single
	// compare against keys[mru] short-circuits the way scan for the
	// repeat-touch case. Pure lookup acceleration: the hit path taken is
	// byte-identical to finding the same way by scanning. A stale mru is
	// harmless (keys[mru] no longer matches and the scan runs).
	mru int

	pbuf [prefetchBufferSize]refPrefetchEntry
	// pbufIdx maps a staged (device, line) to its slot, replacing the
	// O(prefetchBufferSize) linear scans on every lookup/take.
	pbufIdx  map[refPbufKey]int
	pbufNext int

	hits           int64
	misses         int64
	writebacks     int64
	promoted       int64 // prefetch-buffer hits promoted into the cache
	pbufOverwrites int64 // still-in-flight entries lost to FIFO wrap

	// onEvict, when set, observes every dirty-line writeback caused by
	// eviction (the persistence domain uses it: an evicted dirty line has
	// reached the device write queue and is therefore persisted).
	onEvict func(dev *Device, lineAddr uint64)
}

// newRefCache creates a cache with the given capacity in bytes and
// associativity. The number of sets is rounded down to a power of two; a
// capacity smaller than one set still yields a single set.
func newRefCache(capacity int64, assoc int, hitLatency Time) *refCache {
	if assoc < 1 {
		assoc = 1
	}
	sets := capacity / (LineSize * int64(assoc))
	n := 1
	for int64(n*2) <= sets {
		n *= 2
	}
	return &refCache{
		assoc:      assoc,
		numSets:    n,
		setMask:    uint64(n - 1),
		lines:      make([]refLine, n*assoc),
		keys:       make([]uint64, n*assoc),
		hitLatency: hitLatency,
		pbufIdx:    make(map[refPbufKey]int, prefetchBufferSize),
	}
}

// refLineKey packs a (device, line address) pair into one comparable word.
// Line addresses are multiples of LineSize, so the low 6 bits carry no
// information and addr>>6 keeps the key collision-free for addresses up
// to 2^46 (the simulated address space sits at 1<<32); device ids are
// nonzero and process-unique, so a key of 0 never matches a real line.
func refLineKey(dev *Device, lineAddr uint64) uint64 {
	return lineAddr>>6 | dev.id<<40
}

// Stats returns a snapshot of cumulative hit/miss counters.
func (c *refCache) Stats() CacheStats {
	return CacheStats{Hits: c.hits, Misses: c.misses, Writebacks: c.writebacks,
		PrefetchPromotions: c.promoted, PrefetchOverwrites: c.pbufOverwrites}
}

// pbufTake removes and returns the prefetch-buffer entry for a line. The
// len guard skips the key hash entirely when nothing is staged — the
// common case for collectors that never prefetch.
func (c *refCache) pbufTake(dev *Device, lineAddr uint64) (Time, bool) {
	if len(c.pbufIdx) == 0 {
		return 0, false
	}
	i, ok := c.pbufIdx[refPbufKey{dev, lineAddr}]
	if !ok {
		return 0, false
	}
	delete(c.pbufIdx, refPbufKey{dev, lineAddr})
	c.pbuf[i].valid = false
	return c.pbuf[i].readyAt, true
}

func (c *refCache) pbufContains(dev *Device, lineAddr uint64) bool {
	if len(c.pbufIdx) == 0 {
		return false
	}
	_, ok := c.pbufIdx[refPbufKey{dev, lineAddr}]
	return ok
}

// touchLine probes one line. On a miss it allocates the line (evicting LRU
// and issuing the writeback if dirty). It reports whether the access hit
// and the time the line becomes ready (for prefetched in-flight lines).
// seq marks streaming accesses: lines dirtied by a stream write back as
// sequential traffic (memory-controller write combining), while randomly
// dirtied lines pay the device's random-access amplification on eviction.
func (c *refCache) touchLine(dev *Device, lineAddr uint64, now Time, write, seq bool) (hit bool, ready Time) {
	key := refLineKey(dev, lineAddr)
	// Repeat touch of the most recently used line: a (dev, line) pair
	// maps to exactly one way cache-wide, so a key match at mru is the
	// same hit the set scan below would find.
	if i := c.mru; c.keys[i] == key {
		l := &c.lines[i]
		l.lastUse = now
		if write {
			l.dirty = true
			l.seqDirty = seq
		}
		c.hits++
		return true, l.readyAt
	}
	base := int((lineAddr/LineSize)&c.setMask) * c.assoc
	for i, k := range c.keys[base : base+c.assoc] {
		if k == key {
			l := &c.lines[base+i]
			l.lastUse = now
			if write {
				l.dirty = true
				l.seqDirty = seq
			}
			c.mru = base + i
			c.hits++
			return true, l.readyAt
		}
	}
	// Prefetch staging buffer: promote the line into the cache; the
	// caller pays only the remaining transfer time.
	if readyAt, ok := c.pbufTake(dev, lineAddr); ok {
		c.promoted++
		c.hits++
		c.installInSet(base, dev, lineAddr, now, write, seq, readyAt)
		return true, readyAt
	}
	c.misses++
	c.installInSet(base, dev, lineAddr, now, write, seq, 0)
	return false, 0
}

// installInSet places a line into the set at the given base index (the
// caller has already located it), evicting the LRU way with writeback if
// dirty.
func (c *refCache) installInSet(base int, dev *Device, lineAddr uint64, now Time, write, seq bool, readyAt Time) {
	set := c.lines[base : base+c.assoc]
	vi := 0
	for i := range set {
		l := &set[i]
		if !l.valid {
			vi = i
			break
		}
		if l.lastUse < set[vi].lastUse {
			vi = i
		}
	}
	victim := &set[vi]
	if victim.valid && victim.dirty {
		c.writebacks++
		if c.onEvict != nil {
			c.onEvict(victim.dev, victim.tag)
		}
		victim.dev.access(now, opWrite, LineSize, victim.seqDirty)
	}
	*victim = refLine{dev: dev, tag: lineAddr, dirty: write, seqDirty: write && seq, valid: true, lastUse: now, readyAt: readyAt}
	c.keys[base+vi] = refLineKey(dev, lineAddr)
	c.mru = base + vi
}

// touchRange probes every line spanned by [addr, addr+n) and returns the
// number of missing lines plus the latest ready time among hit lines.
//
// Contiguous lines map to consecutive sets, so the set index is advanced
// incrementally instead of being recomputed per line, and the all-resident
// fast path — every line hits — stays inside the probe loop and never
// consults the prefetch buffer or the eviction logic.
func (c *refCache) touchRange(dev *Device, addr uint64, n int64, now Time, write, seq bool) (missLines int, ready Time) {
	if n <= 0 {
		return 0, 0
	}
	first := addr &^ (LineSize - 1)
	nLines := int((addr+uint64(n)-1)/LineSize-first/LineSize) + 1
	assoc := c.assoc
	base := int((first/LineSize)&c.setMask) * assoc
	wrap := c.numSets * assoc
	la := first
	key := refLineKey(dev, first) // consecutive lines: key advances by 1
	for k := 0; k < nLines; k++ {
		hit := false
		if i := c.mru; c.keys[i] == key {
			l := &c.lines[i]
			l.lastUse = now
			if write {
				l.dirty = true
				l.seqDirty = seq
			}
			c.hits++
			if l.readyAt > ready {
				ready = l.readyAt
			}
			hit = true
		} else {
			for i, kk := range c.keys[base : base+assoc] {
				if kk == key {
					l := &c.lines[base+i]
					l.lastUse = now
					if write {
						l.dirty = true
						l.seqDirty = seq
					}
					c.mru = base + i
					c.hits++
					if l.readyAt > ready {
						ready = l.readyAt
					}
					hit = true
					break
				}
			}
		}
		if !hit {
			if readyAt, ok := c.pbufTake(dev, la); ok {
				c.promoted++
				c.hits++
				c.installInSet(base, dev, la, now, write, seq, readyAt)
				if readyAt > ready {
					ready = readyAt
				}
			} else {
				c.misses++
				c.installInSet(base, dev, la, now, write, seq, 0)
				missLines++
			}
		}
		la += LineSize
		key++
		if base += assoc; base == wrap {
			base = 0
		}
	}
	return missLines, ready
}

// installPrefetch stages all missing lines of the range in the prefetch
// buffer, available at readyAt. Lines already cached or staged are left
// alone. Staged lines are clean, so a FIFO wrap can drop a still-valid
// in-flight entry without a writeback — correct, but it silently wastes
// the device bandwidth the dropped prefetch consumed, so every such
// overwrite is counted in CacheStats.PrefetchOverwrites.
func (c *refCache) installPrefetch(dev *Device, addr uint64, n int64, now, readyAt Time) {
	if n <= 0 {
		return
	}
	first := addr &^ (LineSize - 1)
	last := (addr + uint64(n) - 1) &^ (LineSize - 1)
	for la := first; ; la += LineSize {
		if !c.present(dev, la) && !c.pbufContains(dev, la) {
			slot := &c.pbuf[c.pbufNext]
			if slot.valid {
				c.pbufOverwrites++
				delete(c.pbufIdx, refPbufKey{slot.dev, slot.tag})
			}
			*slot = refPrefetchEntry{dev: dev, tag: la, readyAt: readyAt, valid: true}
			c.pbufIdx[refPbufKey{dev, la}] = c.pbufNext
			c.pbufNext = (c.pbufNext + 1) % prefetchBufferSize
		}
		if la == last {
			break
		}
	}
}

// cleanLine clears the dirty bit of a cached line without invalidating it
// (the CLWB semantics) and reports whether the line was dirty. The device
// write is charged by the caller, which also tracks its completion time.
func (c *refCache) cleanLine(dev *Device, lineAddr uint64) bool {
	key := refLineKey(dev, lineAddr)
	base := int((lineAddr/LineSize)&c.setMask) * c.assoc
	for i, k := range c.keys[base : base+c.assoc] {
		if k == key {
			l := &c.lines[base+i]
			wasDirty := l.dirty
			l.dirty = false
			l.seqDirty = false
			return wasDirty
		}
	}
	return false
}

func (c *refCache) present(dev *Device, lineAddr uint64) bool {
	key := refLineKey(dev, lineAddr)
	base := int((lineAddr/LineSize)&c.setMask) * c.assoc
	for _, k := range c.keys[base : base+c.assoc] {
		if k == key {
			return true
		}
	}
	return false
}

// missingLines counts lines of the range absent from both the cache and
// the prefetch buffer without modifying state (used to size prefetch
// transfers).
func (c *refCache) missingLines(dev *Device, addr uint64, n int64) int {
	if n <= 0 {
		return 0
	}
	first := addr &^ (LineSize - 1)
	nLines := int((addr+uint64(n)-1)/LineSize-first/LineSize) + 1
	assoc := c.assoc
	base := int((first/LineSize)&c.setMask) * assoc
	wrap := c.numSets * assoc
	key := refLineKey(dev, first)
	miss := 0
	la := first
	for k := 0; k < nLines; k++ {
		cached := false
		for _, kk := range c.keys[base : base+assoc] {
			if kk == key {
				cached = true
				break
			}
		}
		if !cached && !c.pbufContains(dev, la) {
			miss++
		}
		la += LineSize
		key++ // consecutive lines differ only in the addr>>6 low bits
		if base += assoc; base == wrap {
			base = 0
		}
	}
	return miss
}

// invalidateRange drops all lines of the range without writeback (used by
// non-temporal stores, which overwrite memory directly).
func (c *refCache) invalidateRange(dev *Device, addr uint64, n int64) {
	if n <= 0 {
		return
	}
	first := addr &^ (LineSize - 1)
	last := (addr + uint64(n) - 1) &^ (LineSize - 1)
	for la := first; ; la += LineSize {
		base := int((la/LineSize)&c.setMask) * c.assoc
		set := c.lines[base : base+c.assoc]
		for i := range set {
			l := &set[i]
			if l.valid && l.dev == dev && l.tag == la {
				l.valid = false
				l.dirty = false
				c.keys[base+i] = 0
				break
			}
		}
		c.pbufTake(dev, la)
		if la == last {
			break
		}
	}
}
