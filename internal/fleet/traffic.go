package fleet

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"

	"nvmgc/internal/cassandra"
	"nvmgc/internal/memsim"
	"nvmgc/internal/workload/generator"
)

// Traffic parameterizes the fleet's open-loop client: a single Poisson
// arrival stream at QPS requests per virtual second, each request owned
// by a zipfian-drawn tenant whose home shard is tenant mod fleet size.
// Arrivals never wait for completions — requests issued during a GC
// pause queue behind the paused instance's FIFO server pool and pay the
// remainder of the pause, which is exactly how stop-the-world pauses
// become tail latency in production.
type Traffic struct {
	// QPS is the fleet-wide open-loop arrival rate (requests per virtual
	// second).
	QPS float64
	// Service is the mean per-request service time outside pauses.
	Service memsim.Time
	// Servers is each instance's request-processing parallelism.
	Servers int

	// Tenants is the tenant population; Theta the zipfian skew of the
	// tenant draw. Hot tenants concentrate on their home shards, so the
	// fleet load is deliberately unbalanced.
	Tenants int64
	Theta   float64

	// HedgeAfter, when positive, issues a duplicate of a request to the
	// next replica once the primary has been outstanding that long
	// (Dean & Barroso's hedged requests). Both arms consume server
	// capacity — the model charges the hedging tax instead of modelling
	// cancellation — but only the first arm to complete commits the
	// request's side effect.
	HedgeAfter memsim.Time
	// RetryAfter, when positive, is the per-attempt client timeout: a
	// request still incomplete RetryAfter after its last issue is
	// reissued to the next replica, at most MaxRetries times.
	RetryAfter memsim.Time
	MaxRetries int

	// Seed drives every arrival, tenant, and service-time draw.
	Seed uint64
	// Record retains a per-request trace (tests only; large).
	Record bool
}

// horizon bounds the replay's virtual time: the window, the three
// Traffic times and every request latency lie in [0, 2^memsim.HorizonBits)
// ns — the limit memsim's packed keys and cassandra.Queue's server keys
// already assume — so no sum of two of them wraps an int64. Validate
// holds the parameters to it; a latency can still leave it when queues
// grow for long enough at a huge service time, and SimulateTraffic
// reports that instead of sorting a wrapped clock's garbage.
const horizon = memsim.Time(1) << memsim.HorizonBits

// MaxServers and MaxTenants bound the two Traffic sizes a replay turns
// into work before it serves a request: a per-instance pool allocation
// (and cassandra.Queue's winner-tree keys hold a server index in 8
// bits), and the O(Tenants) ζ series behind the zipfian draw — about
// 0.2 s at the cap. Every archived sweep runs 16 servers and 256 tenants.
const (
	MaxServers = cassandra.MaxServers
	MaxTenants = 1 << 22
)

// Validate rejects traffic parameters up front.
func (tr Traffic) Validate() error {
	// Arrivals are whole nanoseconds apart (nextArrival), so a mean gap
	// below 1 ns is a rate the clock cannot express; NaN fails too.
	if !(tr.QPS > 0 && tr.QPS <= float64(memsim.Second)) {
		return fmt.Errorf("fleet: arrival rate %g qps, want > 0 and at most 1e9 (a mean gap of at least 1 ns)", tr.QPS)
	}
	if tr.Service <= 0 || tr.Service >= horizon {
		return fmt.Errorf("fleet: service time %d, want > 0 and < 2^%d ns", tr.Service, memsim.HorizonBits)
	}
	if tr.Servers < 1 || tr.Servers > MaxServers {
		return fmt.Errorf("fleet: %d servers per instance, want 1..%d", tr.Servers, MaxServers)
	}
	if tr.Tenants < 1 || tr.Tenants > MaxTenants {
		return fmt.Errorf("fleet: %d tenants, want 1..%d", tr.Tenants, MaxTenants)
	}
	if !(tr.Theta > 0 && tr.Theta < 1) {
		return fmt.Errorf("fleet: zipfian theta %g outside (0, 1)", tr.Theta)
	}
	if tr.HedgeAfter < 0 || tr.HedgeAfter >= horizon {
		return fmt.Errorf("fleet: hedge delay %d, want 0 (off) or a time below 2^%d ns", tr.HedgeAfter, memsim.HorizonBits)
	}
	if tr.RetryAfter < 0 || tr.RetryAfter >= horizon {
		return fmt.Errorf("fleet: retry timeout %d, want 0 (off) or a time below 2^%d ns", tr.RetryAfter, memsim.HorizonBits)
	}
	if tr.MaxRetries < 0 {
		return fmt.Errorf("fleet: negative retry budget %d", tr.MaxRetries)
	}
	return nil
}

// Stats counts what the router did.
type Stats struct {
	Requests  int64 // requests completed
	Hedged    int64 // requests that issued a hedge arm
	HedgeWins int64 // hedged requests won by the hedge arm
	Retries   int64 // retry arms issued
	Late      int64 // requests that missed even the last retry deadline
	Commits   int64 // side-effect commits (must equal Requests: one per request)
}

// RequestTrace is one request's routing record (Traffic.Record).
type RequestTrace struct {
	ID        int64
	Tenant    int64
	Shard     int // home shard
	Arms      int // attempts issued (primary + hedge + retries)
	Winner    int // instance that served the winning arm
	WinnerArm int
	Hedged    bool
	Retries   int
	Commits   int // side-effect commits recorded (always exactly 1)
	LatencyMs float64
}

// request is one in-flight request's state.
type request struct {
	id      int64
	t0      memsim.Time
	tenant  int64
	shard   int
	arms    int
	pending int
	retries int
	hedged  bool

	best     memsim.Time // earliest wall-clock completion over all arms
	bestInst int
	bestArm  int
	commits  int
}

// requestSlab is how many request records one allocation carves into:
// a replay holds up to a few thousand in flight, so a handful of slabs.
const requestSlab = 256

// event is one arm's arrival at its instance.
type event struct {
	at   memsim.Time
	seq  int64 // push order: the deterministic tie-break
	req  *request
	arm  int
	inst int
}

// before is the event order: arrival time, then push order.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// eventHeap is a binary min-heap in that order; seq is unique, so the
// order is total and the pop sequence is independent of the layout.
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	*h = q
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i, c := 0, 1; c < n; c = 2*i + 1 {
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q[:n]
	return q[n]
}

// router runs one traffic simulation. All state is host-side, so the
// outcome is a pure function of the timelines, the window, and the
// Traffic parameters — independent of any host-pool setting.
type router struct {
	tr     Traffic
	queues []cassandra.Queue // one per instance
	evq    eventHeap         // hedge and retry arms only; primaries are served in place
	seq    int64
	idle   []*request // finalized request records, reused by later arrivals
	slab   []request  // records not yet handed out
	draws  *draws
	stats  Stats
	// perI collects each instance's latencies as whole nanoseconds (held
	// in float64, which the result must be anyway, so the series needs no
	// second allocation); sortToMs turns them into ascending milliseconds.
	perI  [][]float64
	seen  uint64 // OR of every latency recorded, for the horizon check
	trace []RequestTrace
}

// SimulateTraffic drives the open-loop client over the instances' pause
// timelines for `window` of virtual time (arrivals stop at the window;
// in-flight requests drain). It returns each instance's latency series
// (ascending, attributed to the instance that served the winning arm),
// the router stats, and — with Traffic.Record — the per-request traces.
// Parameters that Validate accepts but that push virtual time past the
// 2^55 ns horizon yield an error, not a wrapped clock.
func SimulateTraffic(timelines []*cassandra.Timeline, window memsim.Time, tr Traffic) ([][]float64, Stats, []RequestTrace, error) {
	if err := tr.Validate(); err != nil {
		return nil, Stats{}, nil, err
	}
	n := len(timelines)
	if n < 1 {
		return nil, Stats{}, nil, fmt.Errorf("fleet: no instances to route to")
	}
	if window <= 0 || window >= horizon {
		return nil, Stats{}, nil, fmt.Errorf("fleet: window %d, want > 0 and < 2^%d", window, memsim.HorizonBits)
	}

	r := &router{tr: tr, queues: cassandra.NewQueues(timelines, tr.Servers), perI: make([][]float64, n)}
	// Each series starts at the mean arrival share (capped: an absurd rate
	// must not become an up-front allocation, and arrivals are at least a
	// nanosecond apart); only hotter shards grow.
	share := int(min(tr.QPS*float64(window)/float64(memsim.Second), float64(window), 1<<24)) / n
	for i := range r.perI {
		r.perI[i] = make([]float64, 0, share)
	}
	d, err := startDraws(tr, window)
	if err != nil {
		return nil, Stats{}, nil, err
	}
	defer d.stop()
	r.draws = d
	var reqID int64
	nextT, tenant := d.arrival()

	// Merge the arrival stream and the arm-event queue in time order;
	// ties go to the queued event (deterministic either way — seq and
	// the arrival sequence fix the order). The first arrival at or past
	// the window ends the arrivals.
	for nextT < window || len(r.evq) > 0 {
		if len(r.evq) > 0 && (nextT >= window || r.evq[0].at <= nextT) {
			r.processArm(r.evq.pop())
			continue
		}
		var req *request
		if k := len(r.idle); k > 0 {
			req, r.idle = r.idle[k-1], r.idle[:k-1]
		} else {
			if len(r.slab) == 0 {
				r.slab = make([]request, requestSlab)
			}
			req, r.slab = &r.slab[0], r.slab[1:]
		}
		// Clear in place and set the fields one by one: a composite
		// literal would be built in a temporary and copied over.
		*req = request{}
		req.id, req.t0, req.tenant = reqID, nextT, tenant
		req.shard = int(tenant % int64(n))
		req.best, req.bestInst, req.bestArm = math.MaxInt64, -1, -1
		reqID++
		// The drain above left every queued event later than nextT, and
		// every arm issued from here on lands later still (a hedge at
		// t0+HedgeAfter, a retry at its deadline), so the primary arm is
		// the queue's next event: serve it without queueing it. It still
		// takes its seq, so the tie-breaks among queued arms are unchanged.
		r.processArm(r.arm(req, req.shard, nextT))
		nextT, tenant = d.arrival()
	}

	if r.seen>>memsim.HorizonBits != 0 {
		return nil, Stats{}, nil, fmt.Errorf("fleet: a request latency left [0, 2^%d) ns: service time %d at %g qps queues past the virtual-time horizon",
			memsim.HorizonBits, tr.Service, tr.QPS)
	}
	longest := 0
	for _, s := range r.perI {
		longest = max(longest, len(s))
	}
	scratch := make([]float64, longest)
	for _, s := range r.perI {
		sortToMs(s, scratch[:len(s)])
	}
	return r.perI, r.stats, r.trace, nil
}

// nextArrival returns the arrival `gap` nanoseconds after t and whether
// it falls outside the window. A gap that is not below the window — NaN
// and +Inf included, which a denormal rate produces — ends the arrivals
// before it is converted, so the conversion cannot wrap.
func nextArrival(t memsim.Time, gap float64, window memsim.Time) (memsim.Time, bool) {
	if !(gap < float64(window)) {
		return window, true
	}
	t += memsim.Time(gap)
	return t, t >= window
}

// The draws are handed over drawChunk values at a time: at that size the
// hand-off, a channel send and sometimes a wakeup, is noise per value
// (1024-value chunks lost most of the overlap to wakeups). Each sequence
// cycles drawDepth chunks: one the router reads, one the producer fills
// or has filled — it draws several times faster than the router serves,
// and a third chunk measured no faster.
const (
	drawChunk = 8192
	drawDepth = 2
)

// draws makes a replay's seeded draws up to a chunk ahead of the router,
// on a producer goroutine. Its three generators feed nothing else, so
// the values and their order are what the router would draw itself:
//   - arrivals, as (time, tenant) pairs up to and including the first
//     arrival outside the window, which ends the sequence;
//   - service times, scaled by Traffic.Service and clamped at an eighth
//     of it, one per arm served.
//
// Draws made ahead and never taken are dropped with the replay.
type draws struct {
	// Producer only.
	arr, svc        *rand.Rand
	zipf            *generator.Zipfian
	meanGap         float64
	window, meanSvc memsim.Time

	// One slab per value column, drawDepth chunks each.
	at     []memsim.Time
	tenant []int32 // Tenants <= MaxTenants fits
	svcs   []memsim.Time

	arrivals, services ring
	done, quit         chan struct{}

	// Router only: the next value and the end of the chunk it holds.
	ai, aEnd, si, sEnd int
}

// ring hands one sequence's chunks, by index into its slabs, from the
// producer (full) to the router and back (free). Each channel holds all
// drawDepth indices, so no send blocks.
type ring struct {
	full, free chan int
	held       int // the chunk the router reads; -1 before the first
}

func newRing() ring {
	r := ring{full: make(chan int, drawDepth), free: make(chan int, drawDepth), held: -1}
	for c := range drawDepth {
		r.free <- c
	}
	return r
}

// next gives the router's chunk back and returns the next full one's
// bounds in the slabs.
func (r *ring) next() (lo, hi int) {
	if r.held >= 0 {
		r.free <- r.held
	}
	r.held = <-r.full
	return r.held * drawChunk, (r.held + 1) * drawChunk
}

// startDraws seeds a replay's generators and starts the producer; the
// caller must stop it.
func startDraws(tr Traffic, window memsim.Time) (*draws, error) {
	zipf, err := generator.NewZipfian(generator.NewRand(tr.Seed, 0x7E4A47), 0, tr.Tenants-1, tr.Theta)
	if err != nil {
		return nil, fmt.Errorf("fleet: tenant distribution: %w", err)
	}
	d := &draws{
		arr:     rand.New(rand.NewPCG(tr.Seed, 0x0FE27A1F)),
		svc:     rand.New(rand.NewPCG(tr.Seed, 0x5E12F1CE)),
		zipf:    zipf,
		meanGap: float64(memsim.Second) / tr.QPS,
		window:  window, meanSvc: tr.Service,
		at:       make([]memsim.Time, drawDepth*drawChunk),
		tenant:   make([]int32, drawDepth*drawChunk),
		svcs:     make([]memsim.Time, drawDepth*drawChunk),
		arrivals: newRing(), services: newRing(),
		done: make(chan struct{}), quit: make(chan struct{}),
	}
	go d.produce()
	return d, nil
}

// stop ends the producer and waits for it.
func (d *draws) stop() {
	close(d.quit)
	<-d.done
}

// produce fills whichever sequence has a free chunk until stopped.
func (d *draws) produce() {
	defer close(d.done)
	arrFree := d.arrivals.free
	t, end := nextArrival(0, d.arr.ExpFloat64()*d.meanGap, d.window)
	for {
		select {
		case c := <-arrFree:
			at, tenant := d.at[c*drawChunk:(c+1)*drawChunk], d.tenant[c*drawChunk:(c+1)*drawChunk]
			for i := range at {
				at[i] = t
				if end {
					arrFree = nil // the sequence is whole; a nil channel never receives
					break
				}
				tenant[i] = int32(d.zipf.Next())
				t, end = nextArrival(t+1, d.arr.ExpFloat64()*d.meanGap, d.window)
			}
			d.arrivals.full <- c
		case c := <-d.services.free:
			svcs := d.svcs[c*drawChunk : (c+1)*drawChunk]
			for i := range svcs {
				s := memsim.Time(d.svc.ExpFloat64() * float64(d.meanSvc))
				if s < d.meanSvc/8 {
					s = d.meanSvc / 8
				}
				svcs[i] = s
			}
			d.services.full <- c
		case <-d.quit:
			return
		}
	}
}

// arrival returns the next arrival's time and tenant. A time at or past
// the window ends the arrivals: the router asks for no more.
func (d *draws) arrival() (memsim.Time, int64) {
	if d.ai == d.aEnd {
		d.ai, d.aEnd = d.arrivals.next()
	}
	i := d.ai
	d.ai++
	return d.at[i], int64(d.tenant[i])
}

// service returns the next arm's service time.
func (d *draws) service() memsim.Time {
	if d.si == d.sEnd {
		d.si, d.sEnd = d.services.next()
	}
	s := d.svcs[d.si]
	d.si++
	return s
}

// The latency sort is a stable LSD radix sort over digitBits-wide digits
// of the nanosecond counts.
const (
	digitBits = 11
	digits    = 1 << digitBits
)

// sortToMs sorts s, a series of whole nanosecond counts in [0, 2^63),
// ascending and converts it to milliseconds in place; scratch is a
// same-length buffer it ping-pongs with. Sorting the integers before
// the division is what makes a radix sort pay: a latency below 2^33 ns
// (8.6 s) is three digits, where its float64 millisecond image spreads
// over all 64 key bits. The pass count comes from the series maximum, and
// each pass counts the next digit while it scatters the current one. The
// last step divides, with the expression finalize would have used, and
// x -> float64(x)/1e6 is monotone, so the result is element for element
// what sorting the millisecond values would have produced.
func sortToMs(s, scratch []float64) {
	var count [2][digits]int
	var hi float64
	for _, v := range s {
		if v > hi {
			hi = v
		}
		count[0][uint64(int64(v))&(digits-1)]++
	}
	passes := (bits.Len64(uint64(int64(hi))) + digitBits - 1) / digitBits
	src, dst := s, scratch
	for p := 0; p < passes; p++ {
		cur, next := &count[p&1], &count[(p+1)&1]
		sum := 0
		for d, c := range cur {
			cur[d], sum = sum, sum+c
		}
		*next = [digits]int{}
		shift := p * digitBits
		for _, v := range src {
			k := uint64(int64(v)) >> shift
			next[k>>digitBits&(digits-1)]++
			d := k & (digits - 1)
			dst[cur[d]] = v
			cur[d]++
		}
		src, dst = dst, src
	}
	for i, v := range src {
		s[i] = v / float64(memsim.Millisecond)
	}
}

// arm numbers one more arm of a request: its event takes the next seq.
func (r *router) arm(req *request, inst int, at memsim.Time) event {
	e := event{at: at, seq: r.seq, req: req, arm: req.arms, inst: inst}
	r.seq++
	req.arms++
	req.pending++
	return e
}

// issue schedules a hedge or retry arm of a request on an instance.
func (r *router) issue(req *request, inst int, at memsim.Time) {
	r.evq.push(r.arm(req, inst, at))
}

// processArm serves one arm on its instance's queue: FIFO over the
// server pool in active time, completion mapped back to wall time
// through the pause timeline. Arms are processed in global arrival
// order, so the per-instance FIFO discipline is exact and each queue's
// timeline cursor only moves forward.
func (r *router) processArm(e event) {
	wall := r.queues[e.inst].Serve(e.at, r.draws.service())

	req := e.req
	if wall < req.best {
		req.best, req.bestInst, req.bestArm = wall, e.inst, e.arm
	}

	// Hedge the primary arm once its predicted completion overshoots the
	// hedge delay (the balancer sees queue state, so it hedges at issue
	// + HedgeAfter rather than discovering the overshoot later).
	n := len(r.queues)
	if e.arm == 0 && r.tr.HedgeAfter > 0 && n > 1 && wall > req.t0+r.tr.HedgeAfter {
		req.hedged = true
		r.stats.Hedged++
		r.issue(req, (req.shard+1)%n, req.t0+r.tr.HedgeAfter)
	}

	req.pending--
	if req.pending == 0 {
		r.settle(req, e.at)
	}
}

// settle retries a request that missed its deadline, or finalizes it.
func (r *router) settle(req *request, now memsim.Time) {
	n := len(r.queues)
	if r.tr.RetryAfter > 0 && req.retries < r.tr.MaxRetries {
		deadline := req.t0 + r.tr.RetryAfter*memsim.Time(req.retries+1)
		if req.best > deadline {
			req.retries++
			r.stats.Retries++
			at := deadline
			if at < now {
				// The timeout elapsed while an arm was still queued; the
				// reissue happens now, not in the past.
				at = now
			}
			r.issue(req, (req.shard+1+req.retries)%n, at)
			return
		}
	}
	r.finalize(req)
}

// finalize commits the winning arm — exactly one side-effect commit per
// request, however many arms were hedged or retried — and records the
// request's latency against the winning instance.
func (r *router) finalize(req *request) {
	req.commits++
	r.stats.Commits++
	r.stats.Requests++
	if req.hedged && req.bestArm != 0 {
		r.stats.HedgeWins++
	}
	if r.tr.RetryAfter > 0 && req.best > req.t0+r.tr.RetryAfter*memsim.Time(req.retries+1) {
		r.stats.Late++
	}
	ns := req.best - req.t0
	r.seen |= uint64(ns)
	r.perI[req.bestInst] = append(r.perI[req.bestInst], float64(ns))
	if r.tr.Record {
		r.trace = append(r.trace, RequestTrace{
			ID: req.id, Tenant: req.tenant, Shard: req.shard,
			Arms: req.arms, Winner: req.bestInst, WinnerArm: req.bestArm,
			Hedged: req.hedged, Retries: req.retries,
			Commits: req.commits, LatencyMs: float64(ns) / float64(memsim.Millisecond),
		})
	}
	// pending == 0: no queued event points at req any more.
	r.idle = append(r.idle, req)
}
