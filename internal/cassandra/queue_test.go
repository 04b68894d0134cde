package cassandra

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"nvmgc/internal/memsim"
)

// refQueue is the server pool Queue replaced, kept as its reference: the
// binary-search Timeline transform and a compare-and-jump scan for the
// earliest-free server, lowest index among equals.
type refQueue struct {
	tl   *Timeline
	free []memsim.Time
}

func newRefQueue(tl *Timeline, servers int) *refQueue {
	return &refQueue{tl: tl, free: make([]memsim.Time, servers)}
}

// pick returns the server the next request goes to and its start in
// active time.
func (r *refQueue) pick(t memsim.Time) (int, memsim.Time) {
	best := 0
	for i := 1; i < len(r.free); i++ {
		if r.free[i] < r.free[best] {
			best = i
		}
	}
	return best, max(r.tl.Active(t), r.free[best])
}

func (r *refQueue) serve(t, svc memsim.Time) memsim.Time {
	best, start := r.pick(t)
	r.free[best] = start + svc
	return r.tl.Inverse(start + svc)
}

// freeTimes returns q's next-free times, unpacked from the tree's leaves
// while it has one.
func (q *Queue) freeTimes() []memsim.Time {
	out := slices.Clone(q.free)
	if q.keys != nil {
		for i := range out {
			out[i] >>= freeIndexBits
		}
	}
	return out
}

// serveBoth serves one request on the queue and on the reference, and
// describes how they differ: in the completion or in any server's
// next-free time. It returns "" when they agree.
func serveBoth(q *Queue, ref *refQueue, at, svc memsim.Time) string {
	got, want := q.Serve(at, svc), ref.serve(at, svc)
	if got != want {
		return fmt.Sprintf("Serve(%d, %d) = %d, reference %d", at, svc, got, want)
	}
	if free := q.freeTimes(); !slices.Equal(free, ref.free) {
		return fmt.Sprintf("after Serve(%d, %d) the pools differ:\n%v\n%v", at, svc, free, ref.free)
	}
	return ""
}

// busyTimeline has n pauses from time 0 on: gaps of 0 (touching the
// previous pause) to 400 µs, durations of 10-200 µs, and every tenth
// pause overlapping the one before it.
func busyTimeline(rng *rand.Rand, n int) []Interval {
	ps := make([]Interval, 0, n)
	for t := memsim.Time(0); len(ps) < n; {
		d := memsim.Time(10+rng.IntN(190)) * memsim.Microsecond
		ps = append(ps, Interval{Start: t, End: t + d})
		if len(ps)%10 == 0 {
			ps = append(ps, Interval{Start: t + d/2, End: t + 2*d})
			t += d
		}
		t += d
		if rng.IntN(4) != 0 {
			t += memsim.Time(rng.IntN(400)) * memsim.Microsecond
		}
	}
	return ps
}

// TestQueueMatchesReference serves request streams through Queue and
// through the reference and compares every completion and every server's
// next-free time. Pools of 1, 2, 16, 255 and 256 servers use the winner
// tree, 257 and 1000 the scan; timelines have no pause, one pause at
// time 0, and 500 pauses that touch and overlap; arrivals are
// nondecreasing with jumps across dozens of pauses, or step back now and
// then. The load keeps every pool busy with three service times, so
// ties recur and the lowest index must win them. Each stream then takes
// one edge step: a finish at 2^55-1 (the largest a key holds), at 2^55,
// below zero, and service times that wrap the sum; past it the queue
// must stay exact on the scan.
func TestQueueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 3))
	timelines := []struct {
		name   string
		pauses []Interval
	}{
		{"no pauses", nil},
		{"one pause at 0", []Interval{{Start: 0, End: 3 * memsim.Millisecond}}},
		{"500 pauses", busyTimeline(rng, 500)},
	}
	edges := []struct {
		name   string
		finish memsim.Time // the edge step's target finish, or
		svc    memsim.Time // its service time, when finish is 0
		fits   bool        // whether the tree survives the edge step
	}{
		{"no edge", 0, 0, true},
		{"largest finish a key holds", 1<<freeTimeBits - 1, 0, true},
		{"first finish a key cannot hold", 1 << freeTimeBits, 0, false},
		{"negative finish", -1 - rng.Int64N(1<<40), 0, false},
		{"service MaxInt64", 0, math.MaxInt64, false},
		{"service MinInt64", 0, math.MinInt64, false},
	}
	const steps, gap = 600, 20 * memsim.Microsecond
	for _, tc := range timelines {
		tl := NewTimeline(tc.pauses)
		for _, n := range []int{1, 2, 16, 255, 256, 257, 1000} {
			unit := gap * memsim.Time(n) / 2 // mean service = n gaps: the pool runs full
			for _, back := range []bool{false, true} {
				for _, edge := range edges {
					q := &NewQueues([]*Timeline{tl}, n)[0]
					ref := newRefQueue(tl, n)
					at := memsim.Time(0)
					for step := range steps {
						switch {
						case back && rng.IntN(8) == 0:
							at -= rng.Int64N(40 * gap)
						case rng.IntN(50) == 0:
							at += rng.Int64N(10 * memsim.Millisecond) // dozens of pauses at once
						default:
							at += rng.Int64N(2 * gap)
						}
						svc := unit * memsim.Time(1+rng.IntN(3))
						isEdge := step == steps/2 && edge.name != "no edge"
						if isEdge {
							svc = edge.svc
							if edge.finish != 0 {
								_, start := ref.pick(at)
								svc = edge.finish - start
							}
						}
						if diff := serveBoth(q, ref, at, svc); diff != "" {
							t.Fatalf("%s, %d servers, back steps %v, %s, step %d: %s", tc.name, n, back, edge.name, step, diff)
						}
						if isEdge && (q.keys != nil) != (edge.fits && n <= MaxServers) {
							t.Fatalf("%s, %d servers, %s: tree kept %v", tc.name, n, edge.name, q.keys != nil)
						}
					}
				}
			}
		}
	}

	// A negative service time can finish before the arrival's active
	// time, where a pause behind the cursor may lie after the finish: an
	// idle server, an arrival at the end of a pause, a service time of -1.
	tl := NewTimeline([]Interval{{Start: 0, End: 3 * memsim.Millisecond}})
	if diff := serveBoth(&NewQueues([]*Timeline{tl}, 4)[0], newRefQueue(tl, 4), 3*memsim.Millisecond, -1); diff != "" {
		t.Fatalf("finish below the arrival's active time: %s", diff)
	}
}

// FuzzQueue serves a fuzzed request stream through Queue and through the
// reference. Each three bytes of pauses are one interval (start, then a
// signed length, so overlapping, empty and inverted intervals all occur
// for NewTimeline to normalize); servers picks a pool of 1..600; each
// byte of gaps is one arrival, 0xF0 and up stepping back in time; svc is
// the service time, shifted right by 0, 1, 0 and 2 bits in turn, so a
// large one crosses 2^55 at different points of the stream.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{0, 0, 40, 0, 10, 40, 0, 50, 0}, uint16(15), int64(20_000), []byte{1, 2, 3, 0, 0, 200, 0xF3, 4, 5})
	f.Add([]byte{0, 0, 127, 0, 20, 0x80, 1, 0, 10, 1, 10, 10}, uint16(0), int64(4000), []byte{0, 1, 0xFF, 9, 100, 100})
	f.Add([]byte{2, 0, 100}, uint16(255), int64(1)<<55, []byte{1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{}, uint16(599), int64(math.MaxInt64), []byte{7, 0xF0, 7, 7})
	f.Add([]byte{0, 5, 5}, uint16(256), int64(-30_000), []byte{9, 9, 9, 9})
	f.Add([]byte{0, 0, 40}, uint16(3), int64(-1), []byte{40})
	f.Fuzz(func(t *testing.T, pauses []byte, servers uint16, svc int64, gaps []byte) {
		var ps []Interval
		for b := pauses; len(b) >= 3; b = b[3:] {
			start := memsim.Time(binary.BigEndian.Uint16(b)) * 16
			ps = append(ps, Interval{Start: start, End: start + memsim.Time(int8(b[2]))*256})
		}
		tl := NewTimeline(ps)
		n := 1 + int(servers)%600
		q := &NewQueues([]*Timeline{tl}, n)[0]
		ref := newRefQueue(tl, n)
		at := memsim.Time(0)
		for i, g := range gaps {
			if g >= 0xF0 {
				at -= memsim.Time(g&0x0F) * 4096
			} else {
				at += memsim.Time(g) * 256
			}
			if diff := serveBoth(q, ref, at, svc>>(i%2+i%4/3)); diff != "" {
				t.Fatalf("%d servers, %d pauses, arrival %d: %s", n, len(ps), i, diff)
			}
		}
	})
}
