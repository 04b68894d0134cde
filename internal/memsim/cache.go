package memsim

import (
	"math/bits"
	"slices"
)

// LineSize is the cache line size in bytes.
const LineSize = 64

// maxAssoc is the widest set: a way index owns its stamp's low 8 bits.
const maxAssoc = 256

// Dirty-state bits of Cache.flags.
const (
	flagDirty uint8 = 1 << iota
	flagSeq         // dirtied by a streaming store: eviction coalesces
)

// prefetchBufferSize is the number of in-flight software-prefetched lines
// staged outside the cache proper (prefetches fill a dedicated buffer, as
// on real hardware, so speculation does not evict demand-fetched data).
const prefetchBufferSize = 128

// pbufBuckets is the size of the prefetch buffer's counting filter.
const pbufBuckets = 1024

// prefetchEntry is one staged line: its lineKey (0 = free slot) and the
// time its transfer completes.
type prefetchEntry struct {
	key     uint64
	readyAt Time
}

// Cache is a shared, set-associative, write-allocate/write-back last-level
// cache model sitting in front of all devices. Dirty evictions generate
// asynchronous device writes (charged to the device channel only).
// Non-temporal stores bypass and invalidate. Software prefetches land in
// a small FIFO staging buffer; a demand access promotes the line into the
// cache and pays only the remaining transfer time.
//
// Per-way state lives in dense parallel arrays indexed set*assoc+way, the
// word arrays carved from one slab and the byte arrays from another:
//
//   - keys: the packed (device, line address) tag, see lineKey; 0 = invalid.
//   - stamp: (lastUse+1)<<8 | way for a valid line, just way for an invalid
//     one. The minimum stamp of a set therefore names the replacement
//     victim — the first invalid way, else the least recently used, ties to
//     the lowest way — and minStamp finds it without a data-dependent
//     branch. Needs lastUse+1 < 2^55, the ~417-day virtual-time horizon
//     Worker.qkey also relies on.
//   - readyAt: when an in-flight (prefetched) line becomes usable. Only
//     prefetch promotions store a nonzero value, so a hit reads it only
//     while now < maxReady and otherwise reports 0; a ready time that is
//     not in the caller's future costs the caller nothing either way.
//   - flags: flagDirty | flagSeq; always 0 for an invalid way.
//   - pred: the way predictor. Traffic re-touches lines — header then
//     payload, CAS read then write, a hot row again — so the low bits of a
//     line number (a superset of its set index) select one byte holding the
//     way the line was last found or installed in, and find tries that way
//     before scanning. The guess is verified against keys, so a stale or
//     aliased entry costs only the scan.
type Cache struct {
	assoc      int
	numSets    int
	setMask    uint64
	predMask   uint64
	hitLatency Time

	keys    []uint64
	stamp   []uint64
	readyAt []uint64
	flags   []uint8
	pred    []uint8
	// maxReady is the latest readyAt ever installed.
	maxReady Time

	// devs lists every device a line was installed for, to recover a dirty
	// victim's *Device from its key; devBuf backs it for up to four tiers.
	devs   []*Device
	devBuf [4]*Device

	pbuf [prefetchBufferSize]prefetchEntry
	// pbufIdx maps a staged line's key to its slot. pbufFilter counts the
	// staged keys per bucket (key modulo pbufBuckets; a count fits a byte
	// because at most prefetchBufferSize lines are staged): a zero bucket
	// proves a key is not staged without hashing it into the map.
	pbufIdx    map[uint64]int
	pbufFilter [pbufBuckets]uint8
	pbufNext   int

	hits           int64
	misses         int64
	writebacks     int64
	promoted       int64 // prefetch-buffer hits promoted into the cache
	pbufOverwrites int64 // still-in-flight entries lost to FIFO wrap

	// onEvict, when set, observes every dirty-line writeback caused by
	// eviction (the persistence domain uses it: an evicted dirty line has
	// reached the device write queue and is therefore persisted).
	onEvict func(dev *Device, lineAddr uint64)

	// pipe is the owning machine's pipeline, drained before Stats reads
	// the counters; nil for a cache outside any machine.
	pipe *pipeline
}

// NewCache creates a cache with the given capacity in bytes and
// associativity (clamped to [1, 256]). The number of sets is rounded down
// to a power of two; a capacity smaller than one set still yields a single
// set.
func NewCache(capacity int64, assoc int, hitLatency Time) *Cache {
	assoc = min(max(assoc, 1), maxAssoc)
	sets := capacity / (LineSize * int64(assoc))
	n := 1
	for int64(n*2) <= sets {
		n *= 2
	}
	lines := n * assoc
	preds := n << (bits.Len(uint(assoc)) - 1) // a power of two <= lines
	words := make([]uint64, 3*lines)
	bytes := make([]uint8, lines+preds)
	c := &Cache{
		assoc:      assoc,
		numSets:    n,
		setMask:    uint64(n - 1),
		predMask:   uint64(preds - 1),
		hitLatency: hitLatency,
		keys:       words[:lines:lines],
		stamp:      words[lines : 2*lines : 2*lines],
		readyAt:    words[2*lines:],
		flags:      bytes[:lines:lines],
		pred:       bytes[lines:],
		pbufIdx:    make(map[uint64]int, prefetchBufferSize),
	}
	c.devs = c.devBuf[:0]
	for i := range c.stamp {
		c.stamp[i] = uint64(i % assoc)
	}
	return c
}

// lineKey packs a (device, line address) pair into one comparable word.
// Line addresses are multiples of LineSize, so the low 6 bits carry no
// information and addr>>6 keeps the key collision-free for addresses up
// to 2^46 (the simulated address space sits at 1<<32); device ids are
// nonzero and process-unique, so a key of 0 never matches a real line.
// Consecutive lines have consecutive keys.
func lineKey(dev *Device, lineAddr uint64) uint64 {
	return lineAddr>>6 | dev.id<<40
}

// lineSpan returns the number of the first line of [addr, addr+n) and how
// many lines the range spans (none if n <= 0).
func lineSpan(addr uint64, n int64) (line uint64, count int) {
	if n <= 0 {
		return 0, 0
	}
	line = addr / LineSize
	return line, int((addr+uint64(n)-1)/LineSize-line) + 1
}

// dirtyFlags is the flags byte a store leaves on its line (0 for a load).
func dirtyFlags(write, seq bool) uint8 {
	switch {
	case !write:
		return 0
	case seq:
		return flagDirty | flagSeq
	}
	return flagDirty
}

// CapacityBytes returns the modeled cache capacity.
func (c *Cache) CapacityBytes() int64 {
	return int64(c.numSets) * int64(c.assoc) * LineSize
}

// CacheStats is a snapshot of hit/miss counters.
type CacheStats struct {
	Hits       int64
	Misses     int64
	Writebacks int64
	// PrefetchPromotions counts demand accesses satisfied from the
	// prefetch staging buffer.
	PrefetchPromotions int64
	// PrefetchOverwrites counts still-in-flight staged lines that were
	// overwritten by newer prefetches on FIFO wrap — useful-prefetch loss
	// that a too-aggressive prefetch distance causes silently.
	PrefetchOverwrites int64
}

// Stats returns a snapshot of cumulative hit/miss counters.
func (c *Cache) Stats() CacheStats {
	c.pipe.sync()
	return CacheStats{Hits: c.hits, Misses: c.misses, Writebacks: c.writebacks,
		PrefetchPromotions: c.promoted, PrefetchOverwrites: c.pbufOverwrites}
}

// pbufSlot returns the prefetch-buffer slot staging a line. The filter
// answers for the common cases — nothing staged, or nothing near the key —
// without the map call.
func (c *Cache) pbufSlot(key uint64) (int, bool) {
	if c.pbufFilter[key%pbufBuckets] == 0 {
		return 0, false
	}
	i, ok := c.pbufIdx[key]
	return i, ok
}

// pbufDrop unstages the line in slot i.
func (c *Cache) pbufDrop(i int) {
	key := c.pbuf[i].key
	delete(c.pbufIdx, key)
	c.pbufFilter[key%pbufBuckets]--
	c.pbuf[i].key = 0
}

// pbufTake removes and returns the prefetch-buffer entry for a line.
func (c *Cache) pbufTake(key uint64) (Time, bool) {
	i, ok := c.pbufSlot(key)
	if !ok {
		return 0, false
	}
	c.pbufDrop(i)
	return c.pbuf[i].readyAt, true
}

// device resolves the device id packed in a cached line's key.
func (c *Cache) device(id uint64) *Device {
	for _, d := range c.devs {
		if d.id == id {
			return d
		}
	}
	panic("memsim: cached line of a device never installed")
}

// find returns the way of the set at base that holds key, or -1; line is
// the key's line number. It is the cache's only set scan.
func (c *Cache) find(base int, line, key uint64) int {
	p := &c.pred[line&c.predMask]
	if w := int(*p); c.keys[base+w] == key {
		return w
	}
	for w, k := range c.keys[base : base+c.assoc] {
		if k == key {
			*p = uint8(w)
			return w
		}
	}
	return -1
}

// minStamp returns the smallest stamp of a set. Which way holds it is as
// good as random, so the reduction runs four independent lanes of a
// branch-free min (valid for operands below 2^63) instead of a compare and
// jump per way.
func minStamp(s []uint64) uint64 {
	const top = 1<<63 - 1
	m0, m1, m2, m3 := uint64(top), uint64(top), uint64(top), uint64(top)
	for ; len(s) >= 4; s = s[4:] {
		d0 := int64(s[0]) - int64(m0)
		d1 := int64(s[1]) - int64(m1)
		d2 := int64(s[2]) - int64(m2)
		d3 := int64(s[3]) - int64(m3)
		m0 += uint64(d0 & (d0 >> 63))
		m1 += uint64(d1 & (d1 >> 63))
		m2 += uint64(d2 & (d2 >> 63))
		m3 += uint64(d3 & (d3 >> 63))
	}
	for _, x := range s {
		d := int64(x) - int64(m0)
		m0 += uint64(d & (d >> 63))
	}
	d := int64(m1) - int64(m0)
	m0 += uint64(d & (d >> 63))
	d = int64(m3) - int64(m2)
	m2 += uint64(d & (d >> 63))
	d = int64(m2) - int64(m0)
	return m0 + uint64(d&(d>>63))
}

// fill handles a probe that missed the set at base: it promotes the line
// from the prefetch buffer — a hit for which the caller pays only the
// remaining transfer time — or allocates it, either way replacing the
// set's minStamp way and issuing the writeback if that way is dirty.
func (c *Cache) fill(dev *Device, base int, line, key uint64, now Time, dirty uint8) (staged bool, ready Time) {
	ready, staged = c.pbufTake(key)
	if staged {
		c.promoted++
		c.hits++
		c.maxReady = max(c.maxReady, ready)
	} else {
		c.misses++
	}
	m := minStamp(c.stamp[base : base+c.assoc])
	i := base + int(m&0xff)
	if c.flags[i]&flagDirty != 0 {
		old := c.keys[i]
		oldDev := c.device(old >> 40)
		c.writebacks++
		if c.onEvict != nil {
			c.onEvict(oldDev, old<<24>>18)
		}
		oldDev.access(now, opWrite, LineSize, c.flags[i]&flagSeq != 0)
	}
	c.keys[i] = key
	c.stamp[i] = uint64(now+1)<<8 | m&0xff
	c.flags[i] = dirty
	if c.maxReady != 0 {
		c.readyAt[i] = uint64(ready)
	}
	c.pred[line&c.predMask] = uint8(m)
	if !slices.Contains(c.devs, dev) {
		c.devs = append(c.devs, dev)
	}
	return staged, ready
}

// hit records a demand access at time now to the valid way w of the set at
// base and returns the line's ready time.
func (c *Cache) hit(base, w int, now Time, dirty uint8) (ready Time) {
	c.stamp[base+w] = uint64(now+1)<<8 | uint64(w)
	if dirty != 0 {
		c.flags[base+w] = dirty
	}
	c.hits++
	if now < c.maxReady {
		ready = Time(c.readyAt[base+w])
	}
	return ready
}

// touchLine probes the line at lineAddr and reports whether the access hit
// and the time an in-flight line becomes ready; see touchRange.
func (c *Cache) touchLine(dev *Device, lineAddr uint64, now Time, write, seq bool) (hit bool, ready Time) {
	line, key, dirty := lineAddr/LineSize, lineKey(dev, lineAddr), dirtyFlags(write, seq)
	base := int(line&c.setMask) * c.assoc
	if w := c.find(base, line, key); w >= 0 {
		return true, c.hit(base, w, now, dirty)
	}
	return c.fill(dev, base, line, key, now, dirty)
}

// touchRange probes every line spanned by [addr, addr+n) at time now and
// returns the number of missing lines plus the latest ready time among hit
// lines. seq marks streaming accesses: lines dirtied by a stream write back
// as sequential traffic (memory-controller write combining), while randomly
// dirtied lines pay the device's random-access amplification on eviction.
func (c *Cache) touchRange(dev *Device, addr uint64, n int64, now Time, write, seq bool) (missLines int, ready Time) {
	line, count := lineSpan(addr, n)
	key := lineKey(dev, line*LineSize)
	dirty := dirtyFlags(write, seq)
	for ; count > 0; count-- {
		base := int(line&c.setMask) * c.assoc
		if w := c.find(base, line, key); w >= 0 {
			ready = max(ready, c.hit(base, w, now, dirty))
		} else if staged, r := c.fill(dev, base, line, key, now, dirty); staged {
			ready = max(ready, r)
		} else {
			missLines++
		}
		line++
		key++
	}
	return missLines, ready
}

// present reports whether a line is cached or waiting in the prefetch
// buffer, without modifying replacement state.
func (c *Cache) present(line, key uint64) bool {
	if c.find(int(line&c.setMask)*c.assoc, line, key) >= 0 {
		return true
	}
	_, ok := c.pbufSlot(key)
	return ok
}

// installPrefetch stages all missing lines of the range in the prefetch
// buffer, available at readyAt. Lines already cached or staged are left
// alone. Staged lines are clean, so a FIFO wrap can drop a still-valid
// in-flight entry without a writeback — correct, but it silently wastes
// the device bandwidth the dropped prefetch consumed, so every such
// overwrite is counted in CacheStats.PrefetchOverwrites.
func (c *Cache) installPrefetch(dev *Device, addr uint64, n int64, now, readyAt Time) {
	line, count := lineSpan(addr, n)
	key := lineKey(dev, line*LineSize)
	for ; count > 0; count-- {
		if !c.present(line, key) {
			if c.pbuf[c.pbufNext].key != 0 {
				c.pbufOverwrites++
				c.pbufDrop(c.pbufNext)
			}
			c.pbuf[c.pbufNext] = prefetchEntry{key: key, readyAt: readyAt}
			c.pbufIdx[key] = c.pbufNext
			c.pbufFilter[key%pbufBuckets]++
			c.pbufNext = (c.pbufNext + 1) % prefetchBufferSize
		}
		line++
		key++
	}
}

// cleanLine clears the dirty bit of a cached line without invalidating it
// (the CLWB semantics) and reports whether the line was dirty. The device
// write is charged by the caller, which also tracks its completion time.
func (c *Cache) cleanLine(dev *Device, lineAddr uint64) bool {
	line := lineAddr / LineSize
	base := int(line&c.setMask) * c.assoc
	w := c.find(base, line, lineKey(dev, lineAddr))
	if w < 0 {
		return false
	}
	wasDirty := c.flags[base+w]&flagDirty != 0
	c.flags[base+w] = 0
	return wasDirty
}

// missingLines counts lines of the range absent from both the cache and
// the prefetch buffer without modifying state (used to size prefetch
// transfers).
func (c *Cache) missingLines(dev *Device, addr uint64, n int64) int {
	line, count := lineSpan(addr, n)
	key := lineKey(dev, line*LineSize)
	miss := 0
	for ; count > 0; count-- {
		if !c.present(line, key) {
			miss++
		}
		line++
		key++
	}
	return miss
}

// invalidateRange drops all lines of the range without writeback (used by
// non-temporal stores, which overwrite memory directly).
func (c *Cache) invalidateRange(dev *Device, addr uint64, n int64) {
	line, count := lineSpan(addr, n)
	key := lineKey(dev, line*LineSize)
	for ; count > 0; count-- {
		base := int(line&c.setMask) * c.assoc
		if w := c.find(base, line, key); w >= 0 {
			c.keys[base+w] = 0
			c.stamp[base+w] = uint64(w)
			c.flags[base+w] = 0
		}
		c.pbufTake(key)
		line++
		key++
	}
}
