package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one interval at a boundary the benchmark can see from outside
// the program: building a machine, heap.New, a runner's Run, one
// collection, one matrix point, one step of fleet.Serve. Spans inside
// the program are ROADMAP item 3's job, not this package's.
type span struct {
	Name     string
	Start    time.Duration // since the recorder's epoch
	End      time.Duration
	Parent   int // index of the enclosing span, -1 for a root
	Workload string
	Iter     int
	Args     map[string]int64 // counts taken at the same boundary
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced run: every method is a no-op, so the timed path pays one
// nil check per boundary.
type recorder struct {
	workload string
	iter     int
	epoch    time.Time
	spans    []span
	open     []int // stack of spans begun and not yet ended
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{
		Name: name, Start: time.Since(r.epoch), Parent: parent,
		Workload: r.workload, Iter: r.iter,
	})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes the span (and anything left open inside it, which only an
// error return can cause) and returns its duration.
func (r *recorder) end(id int, args map[string]int64) time.Duration {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	for len(r.open) > 0 {
		top := r.open[len(r.open)-1]
		r.open = r.open[:len(r.open)-1]
		r.spans[top].End = now
		if top == id {
			break
		}
	}
	r.spans[id].Args = args
	return now - r.spans[id].Start
}

// selfTimes returns, per span name, the summed self time over the
// current iteration: a span's duration minus the part its direct children
// cover. Children never overlap (one goroutine records them), so the
// self times of a tree sum to its root's duration exactly.
func (r *recorder) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for i, s := range r.spans {
		if s.Iter == r.iter {
			self[s.Name] += s.End - s.Start - child[i]
		}
	}
	return self
}

// total returns the summed duration of the current iteration's spans
// with the given name.
func (r *recorder) total(name string) time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name && s.Iter == r.iter {
			d += s.End - s.Start
		}
	}
	return d
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev). One track per iteration.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string           `json:"name"`
		Cat  string           `json:"cat"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int64 `json:"args,omitempty"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.Name, Cat: s.Workload, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Iter + 1, Args: s.Args,
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
