package check

import (
	"encoding/binary"
	"testing"

	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
)

// imageHeap builds a small heap whose regions hold a rooted graph in eden
// plus an old holder pointing into it, and returns the heap and the
// addresses of every word of its allocated objects, the words a fuzzed
// image overwrites.
func imageHeap(t testing.TB) (*heap.Heap, []heap.Address) {
	h, m := testHeap(t)
	a, _, arr := buildGraph(t, h, m, 42)
	refs, err := h.Klasses.DefineArray("ref[]", true)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(1, func(w *memsim.Worker) {
		holder, _ := h.AllocateOld(w, refs, 4)
		h.SetRefInit(w, holder, 2, a)
		h.SetRefInit(w, holder, 3, arr)
		h.Roots.Add(w, holder)
	})
	var words []heap.Address
	for _, r := range h.Regions() {
		if r.Generational() {
			for a := r.Start; a < r.Top; a += heap.WordBytes {
				words = append(words, a)
			}
		}
	}
	return h, words
}

// pokeRecord is one fuzzed write: a word index (modulo the object words)
// followed by the 8-byte value.
const pokeRecord = 10

// FuzzHeapImage overwrites object headers and slots of a small heap with
// fuzzed words, the shapes a torn or lost line leaves in a post-crash
// image, and runs every uncharged reader of the image over it:
// CheckInvariants, Capture, AtBoundary(PreGC) and ScanPostCrash. None may
// panic; Capture fails exactly when CheckInvariants does (they share one
// walk and one trace); and a region whose walk fails is reported both by
// CheckInvariants and, as corrupt, by ScanPostCrash.
func FuzzHeapImage(f *testing.F) {
	poke := func(idx uint16, v uint64) []byte {
		b := binary.LittleEndian.AppendUint16(nil, idx)
		return binary.LittleEndian.AppendUint64(b, v)
	}
	h, words := imageHeap(f)
	holder := h.Old()[0].Start
	for i, w := range words {
		if w == heap.InfoAddr(holder) {
			// The rooted ref[] holder's header claims 2^31 words.
			f.Add(poke(uint16(i), heap.MakeInfo(h.Klasses.ByName("ref[]").ID, 1<<31)))
			// An undefined klass, and a forwarding mark on a live object.
			f.Add(poke(uint16(i), heap.MakeInfo(9999, 4)))
			f.Add(poke(uint16(i-1), heap.ForwardedMark(holder)))
			// A live slot retargeted into the middle of an object.
			f.Add(poke(uint16(i+1), uint64(holder+heap.WordBytes)))
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, words := imageHeap(t)
		for ; len(data) >= pokeRecord; data = data[pokeRecord:] {
			idx := int(binary.LittleEndian.Uint16(data)) % len(words)
			h.Poke(words[idx], binary.LittleEndian.Uint64(data[2:]))
		}
		invErr := h.CheckInvariants()
		_, capErr := Capture(h)
		if (invErr == nil) != (capErr == nil) {
			t.Fatalf("CheckInvariants says %v but Capture says %v", invErr, capErr)
		}
		_ = AtBoundary(PreGC, State{Heap: h})
		scan := h.ScanPostCrash()
		class := make(map[int]heap.RegionClass, len(scan.Regions))
		for _, rs := range scan.Regions {
			class[rs.Index] = rs.Class
		}
		for _, r := range h.Regions() {
			if !r.Generational() {
				continue
			}
			err := h.WalkRegion(r, func(heap.Address, *heap.Klass, int64) error { return nil })
			if err == nil {
				continue
			}
			if invErr == nil {
				t.Fatalf("CheckInvariants passed a region whose walk fails: %v", err)
			}
			if class[r.Index] != heap.RegionCorrupt {
				t.Fatalf("ScanPostCrash calls region %d %v, but its walk fails: %v", r.Index, class[r.Index], err)
			}
		}
	})
}
