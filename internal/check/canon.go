package check

import (
	"fmt"
	"strings"

	"nvmgc/internal/heap"
)

// Obj is the canonical, address-free form of one live object: its class,
// size, reference slots rewritten to discovery ids, and primitive payload
// words. Two heaps hold the same live graph iff their snapshots are equal
// element-wise — discovery ids play the role of the isomorphism.
type Obj struct {
	Klass string
	Size  int64 // total size in words, header included
	Refs  []int // ref slots in offset order: target's discovery id, -1 for nil
	Prims []uint64
}

// Snapshot is the canonical form of a heap's live graph: it keeps enough
// structure to name the first difference between two graphs instead of just
// detecting one.
type Snapshot struct {
	Roots   []int // discovery id per non-nil root slot, in slot order
	Objects []Obj // indexed by discovery id
}

// Capture traverses the live graph from the root set (heap.LiveObjects:
// depth-first, in a deterministic order) and returns its canonical
// snapshot, an object's discovery id being its position in that order.
// Traversal is uncharged. A region that does not parse, a dangling
// reference and a leftover forwarding mark are errors.
func Capture(h *heap.Heap) (*Snapshot, error) {
	live, err := h.LiveObjects()
	if err != nil {
		return nil, fmt.Errorf("canon: %w", err)
	}
	ids := make(map[heap.Address]int, len(live))
	for id, obj := range live {
		ids[obj] = id
	}
	snap := &Snapshot{Objects: make([]Obj, len(live))}
	h.Roots.ForEach(func(slot heap.Address) {
		if ref := h.Peek(slot); ref != 0 {
			snap.Roots = append(snap.Roots, ids[ref])
		}
	})
	for id, obj := range live {
		k, size := h.PeekObject(obj)
		o := &snap.Objects[id]
		*o = Obj{Klass: k.Name, Size: size}
		next := heap.SlotAddr(obj, heap.HeaderWords)
		prims := func(to heap.Address) {
			for ; next < to; next += heap.WordBytes {
				o.Prims = append(o.Prims, h.Peek(next))
			}
		}
		for slot := range k.RefSlots(obj, size) {
			prims(slot)
			ref := -1
			if v := h.Peek(slot); v != 0 {
				ref = ids[v]
			}
			o.Refs = append(o.Refs, ref)
			next = slot + heap.WordBytes
		}
		prims(heap.SlotAddr(obj, size))
	}
	return snap, nil
}

// Diff compares two snapshots and describes the first difference found,
// naming the object where the graphs part (nil when they are identical).
// got is the snapshot under test, want the reference.
func Diff(got, want *Snapshot) error {
	n := min(len(got.Roots), len(want.Roots))
	for i := range n {
		if got.Roots[i] != want.Roots[i] {
			return fmt.Errorf("canon: root slot %d reaches object #%d, reference reaches #%d",
				i, got.Roots[i], want.Roots[i])
		}
	}
	switch {
	case len(got.Roots) < len(want.Roots):
		return fmt.Errorf("canon: %d live roots, reference has %d; its root %d reaches %s",
			len(got.Roots), len(want.Roots), n, want.name(want.Roots[n]))
	case len(got.Roots) > len(want.Roots):
		return fmt.Errorf("canon: %d live roots, reference has %d; root %d reaches %s",
			len(got.Roots), len(want.Roots), n, got.name(got.Roots[n]))
	}
	for id := range min(len(got.Objects), len(want.Objects)) {
		g, w := &got.Objects[id], &want.Objects[id]
		if g.Klass != w.Klass || g.Size != w.Size {
			return fmt.Errorf("canon: object #%d is %s[%d words], reference has %s[%d words]",
				id, g.Klass, g.Size, w.Klass, w.Size)
		}
		if len(g.Refs) != len(w.Refs) {
			return fmt.Errorf("canon: object #%d (%s) has %d ref slots, reference has %d",
				id, g.Klass, len(g.Refs), len(w.Refs))
		}
		for j := range g.Refs {
			if g.Refs[j] != w.Refs[j] {
				return fmt.Errorf("canon: object #%d (%s) ref slot %d points at %s, reference points at %s",
					id, g.Klass, j, got.name(g.Refs[j]), want.name(w.Refs[j]))
			}
		}
		for j := range g.Prims {
			if g.Prims[j] != w.Prims[j] {
				return fmt.Errorf("canon: object #%d (%s) payload word %d is %#x, reference has %#x",
					id, g.Klass, j, g.Prims[j], w.Prims[j])
			}
		}
	}
	if len(got.Objects) != len(want.Objects) {
		return fmt.Errorf("canon: %d live objects, reference has %d", len(got.Objects), len(want.Objects))
	}
	return nil
}

// VerifyRecovered proves a recovered heap holds the live graph pre captured
// before the interrupted collection: the heap parses and traces cleanly
// (Capture's checks are CheckInvariants') and the canonical snapshot
// (shape, classes, sizes, primitive payloads; addresses and ages excluded)
// equals pre. A nil return is the isomorphism proof; data loss the
// recovery pass failed to detect surfaces as the first object that
// differs.
func VerifyRecovered(h *heap.Heap, pre *Snapshot) error {
	post, err := Capture(h)
	if err != nil {
		return fmt.Errorf("post-crash graph: %w", err)
	}
	if err := Diff(post, pre); err != nil {
		return fmt.Errorf("post-crash graph differs: %w", err)
	}
	return nil
}

// name describes object id, or a nil reference (-1), for a diff message.
func (s *Snapshot) name(id int) string {
	if id < 0 {
		return "nil"
	}
	return fmt.Sprintf("#%d (%s)", id, s.Objects[id].Klass)
}

// Summary renders a one-line description of a snapshot for reports.
func (s *Snapshot) Summary() string {
	var bytes int64
	counts := map[string]int{}
	for _, o := range s.Objects {
		bytes += o.Size * heap.WordBytes
		counts[o.Klass]++
	}
	parts := make([]string, 0, len(counts))
	for _, o := range s.Objects {
		if n, ok := counts[o.Klass]; ok {
			parts = append(parts, fmt.Sprintf("%d %s", n, o.Klass))
			delete(counts, o.Klass)
		}
	}
	return fmt.Sprintf("%d roots, %d objects (%d bytes): %s",
		len(s.Roots), len(s.Objects), bytes, strings.Join(parts, ", "))
}
