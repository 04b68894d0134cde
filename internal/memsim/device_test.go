package memsim

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if DRAM.String() != "DRAM" || NVM.String() != "NVM" {
		t.Fatalf("unexpected kind names: %v %v", DRAM, NVM)
	}
	if Kind(7).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestAmplifyRandomVsSequential(t *testing.T) {
	d := NewDevice("nvm", OptaneProfile(), 0)
	if got := d.amplify(8, false); got != 256 {
		t.Fatalf("random 8B on NVM should amplify to 256, got %d", got)
	}
	if got := d.amplify(8, true); got != 64 {
		t.Fatalf("sequential 8B should round to 64, got %d", got)
	}
	if got := d.amplify(300, false); got != 512 {
		t.Fatalf("random 300B should round to 512, got %d", got)
	}
	if got := d.amplify(300, true); got != 320 {
		t.Fatalf("sequential 300B should round to 320, got %d", got)
	}
	dd := NewDevice("dram", DRAMProfile(), 0)
	if got := dd.amplify(8, false); got != 64 {
		t.Fatalf("random 8B on DRAM should amplify to 64, got %d", got)
	}
}

func TestAccessLatencyAndOccupancy(t *testing.T) {
	p := OptaneProfile()
	d := NewDevice("nvm", p, 0)
	// First read at t=0: transfer = 256 / PeakReadBW, plus read latency.
	complete := d.access(0, opRead, 8, false)
	wantTransfer := Time(256.0 / p.PeakReadBW)
	if complete != wantTransfer+p.ReadLatency {
		t.Fatalf("complete = %d, want %d", complete, wantTransfer+p.ReadLatency)
	}
	// A second op issued at t=0 queues behind the first transfer.
	c2 := d.access(0, opRead, 8, false)
	if c2 <= complete {
		t.Fatalf("queued op should finish later: %d vs %d", c2, complete)
	}
}

func TestBandwidthSaturation(t *testing.T) {
	// Total throughput of many concurrent readers is bounded by the
	// device channel regardless of reader count.
	p := OptaneProfile()
	elapsedFor := func(workers int) Time {
		m := NewMachine(Config{Tiers: []TierSpec{{Name: "dram", Profile: DRAMProfile()}, {Name: "nvm", Profile: p, Persistent: true}}, LLCBytes: 1 << 14, LLCAssoc: 4, LLCHitLatency: 15})
		perWorker := 4 << 20
		return m.Run(workers, func(w *Worker) {
			// Distinct addresses per worker so the tiny LLC never hits.
			base := uint64(w.ID()) << 32
			for off := 0; off < perWorker; off += 4096 {
				w.Read(m.NVM, base+uint64(off), 4096, true)
			}
		})
	}
	t1 := elapsedFor(1)
	t8 := elapsedFor(8)
	t32 := elapsedFor(32)
	// A single worker is partly latency-bound; 8 workers overlap latency
	// and hit the channel, so elapsed must grow substantially (the data
	// volume grew 8x) instead of staying flat.
	if t8 < t1*2 {
		t.Fatalf("8 workers should be bandwidth-bound: t1=%d t8=%d", t1, t8)
	}
	// Throughput (bytes/time) should not improve from 8 to 32 workers.
	th8 := 8.0 / float64(t8)
	th32 := 32.0 / float64(t32)
	if th32 > th8*1.1 {
		t.Fatalf("throughput should saturate: th8=%g th32=%g", th8, th32)
	}
}

func TestMixDegradesNVMBandwidth(t *testing.T) {
	p := OptaneProfile()
	d := NewDevice("nvm", p, 0)
	wf0 := d.WriteFraction(0)
	if wf0 != 0 {
		t.Fatalf("initial write fraction = %g", wf0)
	}
	bwClean := d.effBW(opRead, 0)
	// Pour writes into the ledger.
	now := Time(0)
	for i := 0; i < 100; i++ {
		now = d.access(now, opWrite, 4096, true)
	}
	wf := d.WriteFraction(now)
	if wf < 0.5 {
		t.Fatalf("write fraction after write burst = %g, want > 0.5", wf)
	}
	bwMixed := d.effBW(opRead, wf)
	if bwMixed > bwClean/2 {
		t.Fatalf("mixed read bandwidth %g should be far below clean %g", bwMixed, bwClean)
	}
	// The ledger decays: far in the future the mix is clean again.
	if got := d.WriteFraction(now + Second); got > 0.01 {
		t.Fatalf("write fraction should decay, got %g", got)
	}
}

func TestNTWriteFasterThanCachedWriteOnNVM(t *testing.T) {
	p := OptaneProfile()
	d1 := NewDevice("a", p, 0)
	d2 := NewDevice("b", p, 0)
	n := int64(1 << 20)
	cached := d1.access(0, opWrite, n, true)
	nt := d2.access(0, opWriteNT, n, true)
	if nt >= cached {
		t.Fatalf("non-temporal write (%d) should beat cached write path (%d)", nt, cached)
	}
}

func TestDRAMFasterThanNVM(t *testing.T) {
	dram := NewDevice("d", DRAMProfile(), 0)
	nvm := NewDevice("n", OptaneProfile(), 0)
	for _, class := range []opClass{opRead, opWrite, opWriteNT} {
		td := dram.access(0, class, 1<<16, true)
		tn := nvm.access(0, class, 1<<16, true)
		if td >= tn {
			t.Fatalf("class %d: DRAM (%d) should beat NVM (%d)", class, td, tn)
		}
	}
}

func TestDeviceStats(t *testing.T) {
	d := NewDevice("nvm", OptaneProfile(), 0)
	d.access(0, opRead, 64, true)
	d.access(0, opWrite, 64, true)
	s := d.Stats()
	if s.ReadBytes != 64 || s.WriteBytes != 64 || s.ReadOps != 1 || s.WriteOps != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Total() != 128 {
		t.Fatalf("total = %d", s.Total())
	}
	d.access(0, opRead, 64, true)
	delta := d.Stats().Sub(s)
	if delta.ReadBytes != 64 || delta.WriteBytes != 0 {
		t.Fatalf("delta = %+v", delta)
	}
}

func TestWriteFractionProperty(t *testing.T) {
	// Write fraction is always within [0,1] no matter the op sequence.
	f := func(ops []bool, sizes []uint16) bool {
		d := NewDevice("nvm", OptaneProfile(), 0)
		now := Time(0)
		for i, isWrite := range ops {
			var n int64 = 64
			if i < len(sizes) {
				n = int64(sizes[i])%8192 + 1
			}
			class := opRead
			if isWrite {
				class = opWrite
			}
			now = d.access(now, class, n, i%2 == 0)
			wf := d.WriteFraction(now)
			if wf < 0 || wf > 1 || math.IsNaN(wf) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessMonotoneInSize(t *testing.T) {
	// Larger transfers never finish earlier (fresh device each time so
	// the mix ledger doesn't interfere).
	f := func(a, b uint32) bool {
		na, nb := int64(a%(1<<20))+1, int64(b%(1<<20))+1
		if na > nb {
			na, nb = nb, na
		}
		ta := NewDevice("x", OptaneProfile(), 0).access(0, opRead, na, true)
		tb := NewDevice("y", OptaneProfile(), 0).access(0, opRead, nb, true)
		return ta <= tb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// decayRef is decayMix without the table: it always calls math.Exp.
// Applied just before an access it leaves that access's own decay nothing
// to do (lastMix == now), so a device driven through it is the reference
// for the table.
func decayRef(d *Device, now Time) {
	if now <= d.lastMix {
		return
	}
	f := math.Exp(-float64(now-d.lastMix) / mixWindow)
	d.readEW *= f
	d.writeEW *= f
	d.lastMix = now
}

// TestDecayTableIsExp: every table entry is the bits math.Exp returns, and
// a device decaying through the table completes 200k mixed accesses — gaps
// of 0 and 1 ns, both sides of the table's edge, a millisecond — at the
// same instants, with the same ledger and counters, as one that calls
// math.Exp every time.
func TestDecayTableIsExp(t *testing.T) {
	for dt, f := range decayTab {
		if want := math.Exp(-float64(dt) / mixWindow); f != want {
			t.Fatalf("decayTab[%d] = %v, math.Exp gives %v", dt, f, want)
		}
	}
	const edge = Time(len(decayTab))
	gaps := []Time{0, 0, 1, 1, 2, 7, 40, 300, 1023, 1024, edge - 2, edge - 1, edge, edge + 1, 1_000_000}
	classes := []opClass{opRead, opRead, opWrite, opWriteNT}
	rng := rand.New(rand.NewPCG(23, 0xdeca))
	got, want := NewDevice("nvm", OptaneProfile(), 0), NewDevice("nvm", OptaneProfile(), 0)
	now := Time(0)
	for i := 0; i < 200_000; i++ {
		now += gaps[rng.IntN(len(gaps))]
		class := classes[rng.IntN(len(classes))]
		n, seq := int64(1+rng.IntN(4096)), rng.IntN(2) == 0
		g := got.access(now, class, n, seq)
		decayRef(want, now)
		if w := want.access(now, class, n, seq); g != w {
			t.Fatalf("access %d at %d: completes at %d, reference %d", i, now, g, w)
		}
		if got.readEW != want.readEW || got.writeEW != want.writeEW {
			t.Fatalf("access %d at %d: ledger %v/%v, reference %v/%v", i, now, got.readEW, got.writeEW, want.readEW, want.writeEW)
		}
	}
	if got.Stats() != want.Stats() {
		t.Fatalf("DeviceStats: got %+v, reference %+v", got.Stats(), want.Stats())
	}
}
