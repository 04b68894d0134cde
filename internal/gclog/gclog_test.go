package gclog

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"nvmgc/internal/gc"
	"nvmgc/internal/memsim"
)

func sampleLog() Log {
	opt := gc.Optimized()
	return Log{
		FromStats(0, "g1", opt, 8, gc.CollectionStats{
			Pause: 5 * memsim.Millisecond, ReadMostly: 4 * memsim.Millisecond,
			WriteOnly: 1 * memsim.Millisecond, BytesCopied: 2_000_000,
			ObjectsCopied: 40_000, HeaderMapHits: 17,
			NVM: memsim.DeviceStats{ReadBytes: 8_000_000, WriteBytes: 3_000_000, WritebackBytes: 1_000_000, NTBytes: 2_000_000},
			Tiers: []gc.TierTraffic{
				{Name: "dram", Stats: memsim.DeviceStats{ReadBytes: 500_000}},
				{Name: "nvm", Persistent: true, Stats: memsim.DeviceStats{ReadBytes: 8_000_000, WriteBytes: 3_000_000}},
			},
		}),
		FromStats(1, "g1", opt, 8, gc.CollectionStats{
			Full: true, Pause: 20 * memsim.Millisecond, BytesCopied: 9_000_000,
		}),
	}
}

func TestJSONRoundTrip(t *testing.T) {
	l := sampleLog()
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(l) {
		t.Fatalf("roundtrip length %d != %d", len(got), len(l))
	}
	for i := range l {
		// DeepEqual, not ==: the per-tier map makes Event non-comparable.
		if !reflect.DeepEqual(got[i], l[i]) {
			t.Fatalf("event %d mismatch:\n%+v\n%+v", i, got[i], l[i])
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestSummarize(t *testing.T) {
	s := sampleLog().Summarize()
	if s.Collections != 2 || s.FullGCs != 1 {
		t.Fatalf("summary %+v", s)
	}
	if s.TotalPauseMs != 25 || s.MaxPauseMs != 20 {
		t.Fatalf("pause totals %+v", s)
	}
	if s.CopiedMB != 11 {
		t.Fatalf("copied %v", s.CopiedMB)
	}
	// 2MB NT of 3MB writes.
	if s.WriteSeparation < 0.66 || s.WriteSeparation > 0.67 {
		t.Fatalf("write separation %v", s.WriteSeparation)
	}
	if s.P50PauseMs <= 0 || s.P95PauseMs < s.P50PauseMs {
		t.Fatalf("percentiles %+v", s)
	}
	empty := Log(nil).Summarize()
	if empty.Collections != 0 || empty.WriteSeparation != 0 {
		t.Fatalf("empty summary %+v", empty)
	}
}

func TestFromCollections(t *testing.T) {
	cs := []gc.CollectionStats{{Pause: 1e6}, {Pause: 2e6}}
	l := FromCollections("ps", gc.Vanilla(), 4, cs)
	if len(l) != 2 || l[0].Collector != "ps" || l[1].Seq != 1 || l[0].Config != "vanilla" {
		t.Fatalf("log %+v", l)
	}
}
