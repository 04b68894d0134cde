// Package generator provides the composable key- and value-distribution
// generators behind the scenario engine, modeled on YCSB's generator
// stack (Cooper et al., SoCC'10; Gray et al., SIGMOD'94 for the zipfian
// construction). Every generator is a pure function of its seeded RNG:
// the same seed yields the same draw stream on any host, at any
// -parallel setting, in both scheduler modes — which is what lets the
// workload layer promise byte-identical charged-op streams. Next is
// allocation-free in steady state for every generator, so op loops can
// draw per operation without host-side GC noise.
//
// Next is also on other packages' hot paths (the fleet's traffic replay
// draws a tenant per request), so what a draw does not need to recompute
// it does not: the zipfian's rank-1 threshold 1 + 0.5^θ depends on the
// skew alone and is computed once where θ is set, and a NewZipfian over
// at most 4096 items maps each draw to its rank through a precomputed
// table instead of math.Pow, exactly (see rankTable). A resize drops the
// table, so Latest, ScrambledZipfian and growing windows keep one
// math.Pow per draw past rank 1. The test suite replays every
// zipfian-backed generator against the formula as published, with the
// threshold recomputed per draw and no table.
package generator

import (
	"fmt"
	"math/rand/v2"
)

// Generator produces a deterministic stream of int64 draws.
type Generator interface {
	// Next returns the next draw.
	Next() int64
	// Last returns the most recent draw without advancing the stream.
	Last() int64
}

// NewRand returns the package's standard seeded RNG: a PCG whose second
// word namespaces the stream, so independent generators built from one
// seed do not share draws.
func NewRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream^0x9E3779B97F4A7C15))
}

// Uniform draws uniformly from the closed interval [lb, ub].
type Uniform struct {
	rng    *rand.Rand
	lb, ub int64
	last   int64
}

// NewUniform returns a uniform generator over [lb, ub].
func NewUniform(rng *rand.Rand, lb, ub int64) (*Uniform, error) {
	if ub < lb {
		return nil, fmt.Errorf("generator: uniform range [%d, %d] inverted", lb, ub)
	}
	return &Uniform{rng: rng, lb: lb, ub: ub}, nil
}

// SetRange moves the interval (used as key populations grow).
func (u *Uniform) SetRange(lb, ub int64) {
	u.lb, u.ub = lb, ub
}

// Next draws the next value.
func (u *Uniform) Next() int64 {
	u.last = u.lb + u.rng.Int64N(u.ub-u.lb+1)
	return u.last
}

// Last returns the most recent draw.
func (u *Uniform) Last() int64 { return u.last }

// Counter returns consecutive integers — the insert-key sequence of a
// growing population.
type Counter struct {
	next int64
	last int64
}

// NewCounter returns a counter starting at start.
func NewCounter(start int64) *Counter {
	return &Counter{next: start, last: start - 1}
}

// Next returns the next integer in sequence.
func (c *Counter) Next() int64 {
	c.last = c.next
	c.next++
	return c.last
}

// Last returns the most recently handed-out value.
func (c *Counter) Last() int64 { return c.last }

// ackWindow bounds how far ahead of the acknowledged frontier an
// in-flight insert may run.
const ackWindow = 1 << 13

// AcknowledgedCounter is a counter whose Last reports the highest value
// v such that every value ≤ v has been acknowledged — so distributions
// reading Last (e.g. Latest) never select a key whose insert has not
// completed, even when inserts finish out of order.
type AcknowledgedCounter struct {
	c      Counter
	limit  int64 // highest contiguously acknowledged value
	window [ackWindow]bool
}

// NewAcknowledgedCounter returns an acknowledged counter starting at
// start; Last is start-1 until the first acknowledgment.
func NewAcknowledgedCounter(start int64) *AcknowledgedCounter {
	a := &AcknowledgedCounter{limit: start - 1}
	a.c = *NewCounter(start)
	return a
}

// Next hands out the next value (unacknowledged).
func (a *AcknowledgedCounter) Next() int64 { return a.c.Next() }

// Last returns the acknowledged frontier, not the hand-out frontier.
func (a *AcknowledgedCounter) Last() int64 { return a.limit }

// Acknowledge marks v complete and advances the frontier across any
// contiguous run it unblocks. It reports false (and ignores the ack)
// when v is outside (limit, limit+ackWindow] — already acknowledged or
// too far ahead of the frontier.
func (a *AcknowledgedCounter) Acknowledge(v int64) bool {
	if v <= a.limit || v > a.limit+ackWindow {
		return false
	}
	a.window[v%ackWindow] = true
	for a.window[(a.limit+1)%ackWindow] {
		a.window[(a.limit+1)%ackWindow] = false
		a.limit++
	}
	return true
}
