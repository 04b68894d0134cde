package memsim

// Trace records device traffic bucketed by virtual time, reproducing the
// bandwidth-over-time plots collected with the Intel PCM tool in the paper.
// NewDevice creates one when its bucket width is positive. Buckets run from
// time 0; past maxTraceBuckets (17 virtual minutes at 250 µs) traffic is dropped.
type Trace struct {
	bucket Time
	read   []int64
	write  []int64
	end    Time // just past the latest recorded traffic
}

// Bucket returns the trace's bucket width.
func (tr *Trace) Bucket() Time { return tr.bucket }

// Reset discards all recorded samples.
func (tr *Trace) Reset() {
	tr.read = tr.read[:0]
	tr.write = tr.write[:0]
	tr.end = 0
}

const maxTraceBuckets = 1 << 22

func (tr *Trace) add(t Time, bytes int64, isWrite bool) {
	if t < 0 {
		t = 0
	}
	idx := int(t / tr.bucket)
	if idx >= maxTraceBuckets {
		return
	}
	tr.end = max(tr.end, t+1)
	for len(tr.read) <= idx {
		tr.read = append(tr.read, 0)
		tr.write = append(tr.write, 0)
	}
	if isWrite {
		tr.write[idx] += bytes
	} else {
		tr.read[idx] += bytes
	}
}

// TracePoint is one bucket of a bandwidth trace. Bandwidths are in MB/s.
type TracePoint struct {
	T     Time // bucket start time
	Read  float64
	Write float64
	Total float64
}

// Series returns the recorded bandwidth series. Buckets before `from` are
// skipped; the returned points are re-based so the first retained bucket
// has T == 0, matching the elapsed-time axes of the paper's figures.
func (tr *Trace) Series(from Time) []TracePoint {
	first := int(from / tr.bucket)
	if first < 0 {
		first = 0
	}
	if first >= len(tr.read) {
		return nil
	}
	pts := make([]TracePoint, 0, len(tr.read)-first)
	scale := float64(Second) / float64(tr.bucket) / 1e6 // bytes/bucket -> MB/s
	for i := first; i < len(tr.read); i++ {
		r := float64(tr.read[i]) * scale
		w := float64(tr.write[i]) * scale
		pts = append(pts, TracePoint{
			T:     Time(i-first) * tr.bucket,
			Read:  r,
			Write: w,
			Total: r + w,
		})
	}
	return pts
}

// Window returns the average read, write and total bandwidth in MB/s over
// [from, to). A bucket the window covers only in part contributes its
// traffic in proportion to the overlap, as if spread evenly over the
// bucket; the last bucket ends at the latest recorded traffic. A window
// of whole buckets therefore sums them exactly, and one narrower than a
// bucket reads that bucket's rate, not all of its bytes over the window.
func (tr *Trace) Window(from, to Time) (read, write, total float64) {
	if to <= from {
		return 0, 0, 0
	}
	var rb, wb int64   // buckets inside the window
	var rf, wf float64 // shares of the buckets it covers in part
	lo := max(int(from/tr.bucket), 0)
	hi := min(int((to+tr.bucket-1)/tr.bucket), len(tr.read))
	for i := lo; i < hi; i++ {
		s, e := Time(i)*tr.bucket, min(Time(i+1)*tr.bucket, tr.end)
		if s >= from && e <= to {
			rb += tr.read[i]
			wb += tr.write[i]
		} else if ov := min(e, to) - max(s, from); ov > 0 {
			f := float64(ov) / float64(e-s)
			rf += float64(tr.read[i]) * f
			wf += float64(tr.write[i]) * f
		}
	}
	dur := float64(to-from) / float64(Second)
	read = (float64(rb) + rf) / 1e6 / dur
	write = (float64(wb) + wf) / 1e6 / dur
	return read, write, read + write
}
