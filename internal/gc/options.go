// Package gc implements parallel copy-based young-generation garbage
// collectors (G1-style and Parallel-Scavenge-style) over the simulated
// heap, together with the paper's NVM-aware optimizations:
//
//   - write cache: survivor regions are staged in DRAM cache regions and
//     written back to their mapped NVM regions in a separate write-only
//     sub-phase (Section 3.2),
//   - header map: forwarding pointers are installed in a global lock-free
//     closed-hashing map in DRAM instead of NVM object headers
//     (Section 3.3, Algorithm 1),
//   - non-temporal write-back of cache regions (Section 4.1),
//   - asynchronous region flushing with reference tracking and
//     work-stealing exclusion (Section 4.2), and
//   - software prefetching on work-stack pushes and header-map probes
//     (Section 4.3).
package gc

import "fmt"

// Persistence selects the collector's crash-consistency mode.
type Persistence uint8

const (
	// PersistNone runs without persist barriers: the fastest mode, but a
	// power failure mid-collection leaves the NVM heap unrecoverable
	// (half-applied slot updates with no journal to undo them). Crash
	// campaigns flag this configuration as documented-unrecoverable.
	PersistNone Persistence = iota
	// PersistADR assumes the platform's ADR domain (only the device write
	// queue is persistent): the collector journals in-place NVM mutations
	// with CLWB+SFENCE entry barriers and flushes all dirty lines before
	// declaring the collection durable.
	PersistADR
	// PersistEADR assumes extended ADR (the CPU caches are inside the
	// persistence domain): journaling degenerates to plain ordered stores
	// and the end-of-GC flush disappears.
	PersistEADR
)

// String returns the mode name.
func (p Persistence) String() string {
	switch p {
	case PersistNone:
		return "none"
	case PersistADR:
		return "adr"
	case PersistEADR:
		return "eadr"
	default:
		return fmt.Sprintf("Persistence(%d)", uint8(p))
	}
}

// Options selects the NVM-aware optimizations for a collector.
type Options struct {
	// WriteCache stages survivor/promotion regions in DRAM and writes
	// them back to NVM before GC ends, splitting the copy-and-traverse
	// phase into a read-mostly and a write-only sub-phase.
	WriteCache bool
	// WriteCacheBytes bounds the DRAM consumed by cache regions.
	// 0 selects the paper's default of 1/32 of the heap; negative means
	// unlimited (bounded only by the cache pool).
	WriteCacheBytes int64

	// HeaderMap installs forwarding pointers in a DRAM hash map instead
	// of NVM object headers.
	HeaderMap bool
	// HeaderMapBytes bounds the map's DRAM footprint. 0 selects 1/32 of
	// the heap.
	HeaderMapBytes int64
	// HeaderMapMinThreads disables the header map below this thread
	// count (the map only pays off once read bandwidth saturates).
	// 0 selects the paper's default of 8.
	HeaderMapMinThreads int

	// NonTemporal uses streaming stores for cache-region write-back.
	NonTemporal bool

	// AsyncFlush writes cache regions back during traversal as soon as
	// every reference inside has been processed, reclaiming DRAM early.
	// Requires WriteCache.
	AsyncFlush bool

	// Prefetch issues software prefetches for referents when their
	// slots are pushed onto the work stack, and for header-map probes.
	Prefetch bool

	// BFS switches heap traversal from the default stack-based
	// depth-first order to queue-based breadth-first order. The paper
	// (Section 4.3) discusses BFS as a way to make prefetch distance
	// deterministic but rejects it because it scatters parent/child
	// objects and hurts application locality; the option exists to
	// reproduce that ablation.
	BFS bool

	// FlushChunkBytes is the unit in which cache regions are written
	// back to NVM (Section 4.2 discusses flushing at finer granularity,
	// e.g. 4 KiB pages). 0 selects 16 KiB.
	FlushChunkBytes int64

	// Persist selects the crash-consistency mode (default PersistNone).
	// Any mode other than PersistNone requires the heap to be built with a
	// non-zero MetaBytes journal area.
	Persist Persistence

	// Check runs the whole-heap invariant checker (internal/check) at
	// every GC phase boundary: before and after each collection, and at
	// the barriers ending the read-mostly and write-only sub-phases. A
	// violation aborts the collection with a check.Violation error.
	// Checks are uncharged Peek-based scans, so enabling them changes no
	// virtual-time result — but they walk the whole heap, so they are off
	// by default and meant for tests and the selfcheck campaign.
	Check bool
}

// Vanilla returns the unmodified collector configuration.
func Vanilla() Options { return Options{} }

// WithWriteCache returns the paper's "+writecache" configuration: the
// write cache with non-temporal write-back.
func WithWriteCache() Options {
	return Options{WriteCache: true, NonTemporal: true}
}

// Optimized returns the paper's "+all" configuration: write cache,
// non-temporal write-back, header map, and software prefetching.
func Optimized() Options {
	return Options{WriteCache: true, NonTemporal: true, HeaderMap: true, Prefetch: true}
}

// promoteAge is the tenuring threshold: objects that have survived this
// many collections are promoted to the old generation.
const promoteAge = 2

func (o Options) flushChunk() int64 {
	if o.FlushChunkBytes <= 0 {
		return 16 << 10
	}
	return o.FlushChunkBytes
}

func (o Options) headerMapMinThreads() int {
	if o.HeaderMapMinThreads <= 0 {
		return 8
	}
	return o.HeaderMapMinThreads
}

// writeCacheBudget resolves the cache budget for a heap of the given size.
func (o Options) writeCacheBudget(heapBytes int64) int64 {
	switch {
	case o.WriteCacheBytes < 0:
		return 1 << 62
	case o.WriteCacheBytes == 0:
		return heapBytes / 32
	default:
		return o.WriteCacheBytes
	}
}

func (o Options) headerMapBudget(heapBytes int64) int64 {
	if o.HeaderMapBytes <= 0 {
		return heapBytes / 32
	}
	return o.HeaderMapBytes
}

// Label returns a short human-readable tag for the option set, matching
// the paper's figure legends.
func (o Options) Label() string {
	var l string
	switch {
	case o.WriteCache && o.HeaderMap:
		l = "+all"
	case o.WriteCache:
		l = "+writecache"
	default:
		l = "vanilla"
	}
	if o.Persist != PersistNone {
		l += "+" + o.Persist.String()
	}
	return l
}
