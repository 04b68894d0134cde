package heap

import (
	"testing"

	"nvmgc/internal/memsim"
)

// TestPrefetchIsInert holds the host prefetch that charged loads and copies
// issue to being a hint: on a chunk never stored to it allocates nothing
// and materialises nothing, outside [base, metaEnd) it does not panic, and
// no word reads back differently, whether it is called alone or from the
// charged loads and copies that issue it.
func TestPrefetchIsInert(t *testing.T) {
	h, m := chunkedHeap(t, nil)
	untouched := h.base + chunkWords*WordBytes + 8
	if n := testing.AllocsPerRun(100, func() { h.prefetchWord(untouched) }); n != 0 {
		t.Errorf("prefetching an untouched chunk allocated %v times", n)
	}
	if got := materialised(h); got != 0 {
		t.Fatalf("prefetching materialised %d chunks", got)
	}

	for _, a := range []Address{0, h.base - WordBytes, h.metaEnd, h.metaEnd + 1<<20, ^Address(0), ^Address(0) - 7} {
		h.prefetchWord(a)
	}
	chunkEnd := h.base + chunkWords*WordBytes

	want := map[Address]uint64{h.base: 1, h.base + 56: 2, h.base + 64: 3, chunkEnd - WordBytes: 5, h.metaEnd - WordBytes: 4}
	for a, v := range want {
		h.Poke(a, v)
	}
	before := materialised(h)
	m.Run(1, func(w *memsim.Worker) {
		for a, v := range want {
			if got := h.ReadWord(w, a); got != v {
				t.Errorf("ReadWord(%#x) = %d, want %d", a, got, v)
			}
		}
		h.CopyWords(w, h.base+1024, h.base, 9)
		h.IssueReadWord(w, untouched)
		w.Exec()
	})
	for a, v := range want {
		if got := h.Peek(a); got != v {
			t.Errorf("Peek(%#x) = %d after prefetching, want %d", a, got, v)
		}
	}
	for i, v := range []uint64{1, 0, 0, 0, 0, 0, 0, 2, 3} {
		if got := h.Peek(h.base + 1024 + Address(i)*WordBytes); got != v {
			t.Errorf("copied word %d = %d, want %d", i, got, v)
		}
	}
	if got := h.Peek(untouched); got != 0 || materialised(h) != before {
		t.Errorf("a charged load of an untouched chunk read %d and left %d chunks, want 0 and %d", got, materialised(h), before)
	}
}
