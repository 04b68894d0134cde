package oracle

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"nvmgc/internal/workload/generator"
)

// OpKind enumerates workload-trace operations. Every operand is a logical
// object id (its allocation sequence number) or a small index — never a
// heap address — so the same trace replays against any collector and
// topology.
type OpKind uint8

const (
	// OpAllocNode allocates a fixed-size node (two ref slots, payload).
	OpAllocNode OpKind = iota
	// OpAllocPrim allocates a primitive array of Val words.
	OpAllocPrim
	// OpAllocRef allocates a reference array of Val words.
	OpAllocRef
	// OpLink stores object B into ref slot Val of object A.
	OpLink
	// OpUnlink clears ref slot Val of object A.
	OpUnlink
	// OpRootAdd adds object A to the external root set.
	OpRootAdd
	// OpRootDrop clears the A'th live root entry.
	OpRootDrop
	// OpSetPrim writes Val into a primitive slot (selected by B) of
	// object A.
	OpSetPrim
	// OpGC triggers an explicit collection (A: 0 young, 1 mixed, 2 full)
	// and captures a canonical snapshot afterwards.
	OpGC
)

// Op is one trace operation. A and B are object ids or indices, Val a
// payload value, size, or slot selector depending on Kind.
type Op struct {
	Kind OpKind
	A, B int
	Val  uint64
}

// String renders the op for failure reports.
func (o Op) String() string {
	switch o.Kind {
	case OpAllocNode:
		return fmt.Sprintf("alloc #%d = node(payload=%#x)", o.A, o.Val)
	case OpAllocPrim:
		return fmt.Sprintf("alloc #%d = prim[%d]", o.A, o.Val)
	case OpAllocRef:
		return fmt.Sprintf("alloc #%d = ref[%d]", o.A, o.Val)
	case OpLink:
		return fmt.Sprintf("link #%d.ref[%d] = #%d", o.A, o.Val, o.B)
	case OpUnlink:
		return fmt.Sprintf("unlink #%d.ref[%d]", o.A, o.Val)
	case OpRootAdd:
		return fmt.Sprintf("root+ #%d", o.A)
	case OpRootDrop:
		return fmt.Sprintf("root- [%d]", o.A)
	case OpSetPrim:
		return fmt.Sprintf("setprim #%d[%d] = %#x", o.A, o.B, o.Val)
	case OpGC:
		return fmt.Sprintf("gc(%s)", []string{"young", "mixed", "full"}[o.A%3])
	default:
		return fmt.Sprintf("op(%d)", o.Kind)
	}
}

// FormatTrace renders a trace one op per line for failure reports.
func FormatTrace(ops []Op) string {
	var b strings.Builder
	for i, o := range ops {
		fmt.Fprintf(&b, "  %3d: %s\n", i, o)
	}
	return b.String()
}

// TraceDists lists the object-id selection distributions GenerateDist
// accepts; the differential campaign rotates through them so skewed
// populations (hot objects linked and unlinked far more often than the
// tail) go through the same scrutiny as uniform ones.
func TraceDists() []string { return []string{"uniform", "zipfian", "hotspot"} }

// GenerateDist builds a seeded random workload trace of n ops. The
// generator tracks a rough model (allocation count, live root count)
// only to keep traces interesting — the replayer makes every op
// well-defined regardless, so shrunk sub-traces remain valid. dist
// selects how operand object ids are drawn (see TraceDists): zipfian
// concentrates link/unlink churn on the *newest* objects, hotspot on a
// fixed 20% id band — both reuse the scenario engine's generators, so a
// skew bug would surface here and in the workload layer alike. Unknown
// dists fall back to uniform (the campaign validates its rotation).
func GenerateDist(seed uint64, n int, dist string) []Op {
	rng := rand.New(rand.NewPCG(seed, 0x6f7261636c65)) // "oracle"
	var zipf *generator.Zipfian
	var hot *generator.Hotspot
	switch dist {
	case "zipfian":
		zipf, _ = generator.NewZipfian(generator.NewRand(seed, 0x6f72), 0, 0, generator.ZipfianConstant)
	case "hotspot":
		hot, _ = generator.NewHotspot(generator.NewRand(seed, 0x6f72), 0, 0, 0.2, 0.8)
	}
	ops := make([]Op, 0, n)
	next := 0  // allocated object count
	roots := 0 // rough live-root count
	anyID := func() int {
		switch {
		case zipf != nil:
			zipf.ForItems(int64(next))
			return next - 1 - int(zipf.Next()) // rank 0 = the newest object
		case hot != nil:
			hot.SetRange(0, int64(next)-1)
			return int(hot.Next())
		default:
			return rng.IntN(next)
		}
	}
	for len(ops) < n {
		x := rng.IntN(100)
		switch {
		case next == 0 || x < 30: // allocate
			id := next
			next++
			switch rng.IntN(4) {
			case 0:
				ops = append(ops, Op{Kind: OpAllocPrim, A: id, Val: uint64(4 + 2*rng.IntN(15))})
			case 1:
				ops = append(ops, Op{Kind: OpAllocRef, A: id, Val: uint64(4 + 2*rng.IntN(7))})
			default:
				ops = append(ops, Op{Kind: OpAllocNode, A: id, Val: rng.Uint64()})
			}
			// Freshly allocated objects are garbage unless attached: bias
			// towards rooting or linking them immediately.
			if roots < 4 || rng.IntN(100) < 45 {
				ops = append(ops, Op{Kind: OpRootAdd, A: id})
				roots++
			} else if rng.IntN(100) < 70 {
				ops = append(ops, Op{Kind: OpLink, A: anyID(), B: id, Val: uint64(rng.IntN(8))})
			}
		case x < 50:
			ops = append(ops, Op{Kind: OpLink, A: anyID(), B: anyID(), Val: uint64(rng.IntN(8))})
		case x < 60:
			ops = append(ops, Op{Kind: OpUnlink, A: anyID(), Val: uint64(rng.IntN(8))})
		case x < 70:
			ops = append(ops, Op{Kind: OpSetPrim, A: anyID(), B: rng.IntN(16), Val: rng.Uint64()})
		case x < 78 && roots > 6: // keep the live set bounded
			ops = append(ops, Op{Kind: OpRootDrop, A: rng.IntN(1 << 16)})
			roots--
		case x < 82:
			ops = append(ops, Op{Kind: OpRootAdd, A: anyID()})
			roots++
		case x < 86:
			kind := 0
			switch v := rng.IntN(10); {
			case v == 9:
				kind = 2 // full
			case v >= 7:
				kind = 1 // mixed
			}
			ops = append(ops, Op{Kind: OpGC, A: kind})
		default:
			ops = append(ops, Op{Kind: OpLink, A: anyID(), B: anyID(), Val: uint64(rng.IntN(8))})
		}
	}
	return ops[:n]
}
