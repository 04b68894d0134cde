package memsim

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// treeImpl is a key tree under differential test: the real one, or a
// mutant with one seeded defect.
type treeImpl struct {
	name string
	new  func(n int, start Time) keyTree
	set  func(t keyTree, id int, key Time)
}

var realTree = treeImpl{"keyTree", newKeyTree, keyTree.set}

// treeMutants are the three ways a winner tree goes wrong quietly.
var treeMutants = []treeImpl{
	{"stale parent after a leaf store", newKeyTree, func(t keyTree, id int, key Time) {
		i := len(t)/2 + id
		t[i] = key
		key = t[i>>1] // the node above the leaf keeps its old winner
		for i >>= 1; i > 1; {
			d := t[i^1] - key
			key += d & (d >> 63)
			i >>= 1
			t[i] = key
		}
	}},
	{"leaves one power short", func(n int, start Time) keyTree {
		t := newKeyTree(n, start)
		return t[:max(len(t)/2, 2)]
	}, keyTree.set},
	{"replay stopping below the root", newKeyTree, func(t keyTree, id int, key Time) {
		i := len(t)/2 + id
		t[i] = key
		for i > 3 {
			d := t[i^1] - key
			key += d & (d >> 63)
			i >>= 1
			t[i] = key
		}
	}},
}

// refTop is the reference queue: a linear arg-min over the plain keys.
func refTop(keys []Time) Time {
	top := noKey
	for _, k := range keys {
		top = min(top, k)
	}
	return top
}

// diffKeyTree drives impl and the reference with one seeded stream of the
// scheduler's three queue operations — raise the top's key (a parked
// worker acted on in place), switch (top out, runner in) and finish (top
// out) — from n workers waiting at start until all have finished, and
// returns the first disagreement about the top. Raises are a few ns, so
// clocks collide constantly and the id byte decides; clocks saturate at
// 2^55-1, the largest a key can pack.
func diffKeyTree(impl treeImpl, n int, start Time, seed uint64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	const lastClock = Time(1)<<55 - 1
	rng := rand.New(rand.NewPCG(seed, uint64(n)))
	t := impl.new(n, start)
	now := make([]Time, n)  // every worker's clock
	keys := make([]Time, n) // the reference: a worker's key while it waits
	for id := range keys {
		now[id] = start
		keys[id] = start<<8 | Time(id)
	}
	check := func(step int, what string) error {
		if got, want := t[1], refTop(keys); got != want {
			return fmt.Errorf("n=%d start=%d step %d (%s): top %#x, reference %#x", n, start, step, what, got, want)
		}
		return nil
	}
	if err := check(0, "new"); err != nil {
		return err
	}
	// take removes the top from both queues and returns its id.
	take := func() int {
		id := int(refTop(keys) & 0xff)
		keys[id] = noKey
		impl.set(t, id, noKey)
		return id
	}
	runner := take() // the dispatcher resumes the first worker
	for step := 1; ; step++ {
		what := ""
		top := refTop(keys)
		switch op := rng.IntN(16); {
		case top == noKey || op == 0:
			what = "finish"
			if top == noKey {
				if t[1] != noKey {
					return fmt.Errorf("n=%d step %d: top %#x with nothing runnable", n, step, t[1])
				}
				return nil
			}
			runner = take()
		case op < 4:
			what = "switch"
			now[runner] = min(max(now[runner], top>>8)+Time(rng.IntN(3)), lastClock)
			next := take()
			keys[runner] = now[runner]<<8 | Time(runner)
			impl.set(t, runner, keys[runner])
			runner = next
		default:
			what = "raise"
			id := int(top & 0xff)
			now[id] = min(now[id]+Time(rng.IntN(4)), lastClock) // +0: the unmoved-key store is harmless
			keys[id] = now[id]<<8 | Time(id)
			impl.set(t, id, keys[id])
		}
		if err := check(step, what); err != nil {
			return err
		}
	}
}

var treeSizes = []int{1, 2, 3, 16, 17, 56, 255, 256}

// TestKeyTreeMatchesLinearScan: the tree names the same earliest worker as
// a linear scan after every queue operation, for worker counts on both
// sides of a power of two, from time 0 and from just under the packing's
// limit, and reads noKey exactly when nothing is runnable.
func TestKeyTreeMatchesLinearScan(t *testing.T) {
	for _, n := range treeSizes {
		for _, start := range []Time{0, 1<<55 - 40} {
			for seed := uint64(1); seed <= 4; seed++ {
				if err := diffKeyTree(realTree, n, start, seed); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestKeyTreeDiffCatchesMutants: the differential stream notices each
// seeded defect at every size that has a tree above its leaves.
func TestKeyTreeDiffCatchesMutants(t *testing.T) {
	for _, mut := range treeMutants {
		for _, n := range treeSizes[1:] {
			err := diffKeyTree(mut, n, 0, 1)
			if err == nil {
				t.Errorf("mutant %q passed the differential test at n=%d", mut.name, n)
			}
			t.Logf("%s, n=%d: %v", mut.name, n, err)
		}
	}
}

var benchTop Time

// BenchmarkRunQueue times the queue's hot operation, raising the top's key
// and reading the new top, on a queue of each size: the per-op cost of
// acting for a parked peer at 2, 16, 56 and 256 workers.
func BenchmarkRunQueue(b *testing.B) {
	for _, n := range []int{2, 16, 56, 256} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(uint64(n), 0xbeef))
			step := make([]Time, 1024) // monotone keys: every raise is 1..400 ns
			for i := range step {
				step[i] = Time(1+rng.IntN(400)) << 8
			}
			t := newKeyTree(n, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				top := t[1]
				t.set(int(top&0xff), top+step[i%len(step)])
			}
			benchTop = t[1]
		})
	}
}
