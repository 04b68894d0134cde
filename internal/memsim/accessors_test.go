package memsim

import "testing"

func TestDeviceAccessors(t *testing.T) {
	d := NewDevice("probe", OptaneProfile(), 1000)
	if d.Name() != "probe" {
		t.Fatal("accessors wrong")
	}
	if d.Profile().Granularity != 256 {
		t.Fatal("profile accessor wrong")
	}
	d.access(0, opRead, 4096, true)
	if len(d.Trace().Series(0)) == 0 {
		t.Fatal("trace not recording")
	}
}

func TestWorkerAccessors(t *testing.T) {
	m := testMachine()
	m.Run(3, func(w *Worker) {
		if w.Machine() != m {
			panic("machine accessor wrong")
		}
		if w.ID() < 0 || w.ID() > 2 {
			panic("bad id")
		}
		before := w.Now()
		w.Advance(-5) // negative advances are ignored
		if w.Now() != before {
			panic("negative advance moved time")
		}
		w.Spin(0) // clamps to at least 1ns
		if w.Now() != before+1 {
			panic("spin clamp wrong")
		}
		w.Fence()
		if w.Now() <= before+1 {
			panic("fence should cost time")
		}
	})
}

func TestRunZeroWorkers(t *testing.T) {
	m := testMachine()
	if el := m.Run(0, func(w *Worker) { w.Advance(100) }); el != 100 {
		// n <= 1 takes the serial path with a single worker.
		t.Fatalf("elapsed = %d", el)
	}
}

func TestMinTransferTimeIsOneNs(t *testing.T) {
	d := NewDevice("d", DRAMProfile(), 0)
	// A 1-byte op rounds to 64B; at 60 B/ns that's ~1ns — transfer must
	// never be zero or the channel could livelock.
	c1 := d.access(0, opRead, 1, true)
	c2 := d.access(0, opRead, 1, true)
	if c2 <= c1-d.Profile().ReadLatency {
		t.Fatal("second op must queue behind the first")
	}
}
