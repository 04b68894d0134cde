package generator

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Hotspot splits [lb, ub] into a hot set (the first hotsetFrac of the
// interval) receiving hotOpnFrac of the draws uniformly, with the cold
// remainder sharing the rest — the YCSB hotspot distribution. Unlike
// zipfian there is no popularity gradient inside the hot set, which
// makes it the sharper tool for cache- and wear-concentration sweeps.
type Hotspot struct {
	rng        *rand.Rand
	lb         int64
	hotsetFrac float64
	hotOpnFrac float64

	hotInterval, coldInterval int64
	last                      int64
}

// NewHotspot returns a hotspot generator over [lb, ub].
func NewHotspot(rng *rand.Rand, lb, ub int64, hotsetFrac, hotOpnFrac float64) (*Hotspot, error) {
	if ub < lb {
		return nil, fmt.Errorf("generator: hotspot range [%d, %d] inverted", lb, ub)
	}
	if hotsetFrac <= 0 || hotsetFrac >= 1 || hotOpnFrac <= 0 || hotOpnFrac >= 1 {
		return nil, fmt.Errorf("generator: hotspot fractions (set %g, opn %g) outside (0, 1)",
			hotsetFrac, hotOpnFrac)
	}
	h := &Hotspot{rng: rng, hotsetFrac: hotsetFrac, hotOpnFrac: hotOpnFrac}
	h.SetRange(lb, ub)
	return h, nil
}

// SetRange moves the interval, re-deriving the hot/cold split (used as
// key populations grow).
func (h *Hotspot) SetRange(lb, ub int64) {
	h.lb = lb
	interval := ub - lb + 1
	h.hotInterval = int64(float64(interval) * h.hotsetFrac)
	if h.hotInterval < 1 {
		h.hotInterval = 1
	}
	if h.hotInterval > interval {
		h.hotInterval = interval
	}
	h.coldInterval = interval - h.hotInterval
}

// Next draws the next value.
func (h *Hotspot) Next() int64 {
	if h.coldInterval == 0 || h.rng.Float64() < h.hotOpnFrac {
		h.last = h.lb + h.rng.Int64N(h.hotInterval)
	} else {
		h.last = h.lb + h.hotInterval + h.rng.Int64N(h.coldInterval)
	}
	return h.last
}

// Last returns the most recent draw.
func (h *Hotspot) Last() int64 { return h.last }

// Exponential draws non-negative values with an exponential tail,
// parameterized the YCSB way: percentile percent of the draws fall
// within frac of rang — e.g. (95, 8000, 0.12) puts 95% of draws in
// [0, 960). The scenario engine uses the draw as a distance back from
// the newest key, giving a recency bias with a heavier tail than
// Latest.
type Exponential struct {
	rng   *rand.Rand
	gamma float64
	last  int64
}

// NewExponential returns an exponential generator; percentile in (0,
// 100), and rang*frac (the containing interval) must be positive.
func NewExponential(rng *rand.Rand, percentile, rang, frac float64) (*Exponential, error) {
	if percentile <= 0 || percentile >= 100 {
		return nil, fmt.Errorf("generator: exponential percentile %g outside (0, 100)", percentile)
	}
	if rang*frac <= 0 {
		return nil, fmt.Errorf("generator: exponential range*frac %g not positive", rang*frac)
	}
	return &Exponential{rng: rng, gamma: -math.Log(1-percentile/100) / (rang * frac)}, nil
}

// Next draws the next value.
func (e *Exponential) Next() int64 {
	e.last = int64(-math.Log(1-e.rng.Float64()) / e.gamma)
	return e.last
}

// Last returns the most recent draw.
func (e *Exponential) Last() int64 { return e.last }
