package memsim

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestTraceSeriesAndWindowAgree(t *testing.T) {
	// The Window aggregate over the whole trace must equal the
	// byte-weighted sum of the Series points.
	f := func(seed uint64, n uint8) bool {
		tr := &Trace{bucket: 1000}
		rng := rand.New(rand.NewPCG(seed, 7))
		var total int64
		end := Time(1)
		for i := 0; i < int(n)+1; i++ {
			at := Time(rng.Int64N(50_000))
			b := rng.Int64N(4096) + 1
			tr.add(at, b, rng.IntN(2) == 0)
			total += b
			if at >= end {
				end = at + 1
			}
		}
		_, _, totBW := tr.Window(0, end)
		wantBW := float64(total) / 1e6 / (float64(end) / float64(Second))
		diff := totBW - wantBW
		if diff < 0 {
			diff = -diff
		}
		return diff < wantBW*1e-9+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceSeriesRebase(t *testing.T) {
	tr := &Trace{bucket: 1000}
	tr.add(500, 64, false)
	tr.add(2500, 64, true)
	pts := tr.Series(2000)
	if len(pts) != 1 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].T != 0 {
		t.Fatalf("rebased T = %d", pts[0].T)
	}
	if pts[0].Write == 0 || pts[0].Read != 0 {
		t.Fatalf("point = %+v", pts[0])
	}
	if tr.Series(99_999) != nil {
		t.Fatal("series past the end should be nil")
	}
}

func TestTraceNegativeTimeClamped(t *testing.T) {
	tr := &Trace{bucket: 1000}
	tr.add(-5, 64, false)
	pts := tr.Series(0)
	if len(pts) != 1 || pts[0].Read == 0 {
		t.Fatal("negative time should clamp to bucket 0")
	}
}

// TestTraceBounded: traffic far past time 0 is dropped, not recorded into
// one bucket per 250 µs since time 0 (2^50 ns would be ~4.5e9 buckets).
func TestTraceBounded(t *testing.T) {
	m := NewMachine(DefaultConfig()) // tracing on
	m.Run(1, func(w *Worker) {
		w.Read(m.NVM, 0, 64, false)
		w.Advance(1 << 50)
		w.Read(m.NVM, 64, 64, false)
	})
	if n := len(m.NVM.Trace().read); n < 1 || n > maxTraceBuckets {
		t.Fatalf("trace holds %d buckets, want 1..%d", n, maxTraceBuckets)
	}
}

func TestCacheStatsConservation(t *testing.T) {
	// hits + misses equals the number of line touches.
	m := testMachine()
	touches := 0
	m.Run(1, func(w *Worker) {
		for i := 0; i < 500; i++ {
			w.Read(m.NVM, uint64(i%100)*64, 64, false)
			touches++
		}
	})
	s := m.LLC.Stats()
	if s.Hits+s.Misses != int64(touches) {
		t.Fatalf("hits %d + misses %d != touches %d", s.Hits, s.Misses, touches)
	}
	if s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("expected both hits and misses: %+v", s)
	}
}

func TestSeqDirtyEvictionsAvoidAmplification(t *testing.T) {
	// Streaming stores write back at line granularity; random stores pay
	// the 256B NVM amplification.
	run := func(seq bool) int64 {
		cfg := DefaultConfig()
		cfg.LLCBytes = 1 << 12 // tiny: force immediate evictions
		m := NewMachine(cfg)
		m.Run(1, func(w *Worker) {
			for i := 0; i < 256; i++ {
				w.Write(m.NVM, uint64(i)*64, 64, seq)
			}
			// Evict everything with clean reads far away.
			for i := 0; i < 256; i++ {
				w.Read(m.NVM, 1<<30+uint64(i)*64, 64, true)
			}
		})
		return m.NVM.Stats().WritebackBytes
	}
	seqWB := run(true)
	randWB := run(false)
	if randWB < seqWB*3 {
		t.Fatalf("random writebacks (%d) should be ~4x streaming (%d)", randWB, seqWB)
	}
}
