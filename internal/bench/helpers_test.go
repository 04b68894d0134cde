package bench

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"nvmgc/internal/gc"
	"nvmgc/internal/heap"
	"nvmgc/internal/memsim"
	"nvmgc/internal/metrics"
	"nvmgc/internal/workload"
)

func TestStatHelpers(t *testing.T) {
	if mean(nil) != 0 || maxOf(nil) != 0 || minOf(nil) != 0 {
		t.Fatal("empty-slice helpers should return 0")
	}
	v := []float64{2, 8, 5}
	if mean(v) != 5 || maxOf(v) != 8 || minOf(v) != 2 {
		t.Fatalf("helpers wrong: %v %v %v", mean(v), maxOf(v), minOf(v))
	}
	if ratio(1, 0) != 0 || ratio(6, 3) != 2 {
		t.Fatal("ratio wrong")
	}
	if seconds(memsim.Second) != 1 || ms(memsim.Millisecond) != 1 {
		t.Fatal("time conversions wrong")
	}
}

func TestGCBandwidth(t *testing.T) {
	if gcBandwidthMBps(nil) != 0 {
		t.Fatal("no collections should give 0")
	}
	cs := []gc.CollectionStats{{
		Pause: memsim.Second,
		NVM:   memsim.DeviceStats{ReadBytes: 500_000_000, WriteBytes: 500_000_000},
	}}
	if got := gcBandwidthMBps(cs); math.Abs(got-1000) > 1 {
		t.Fatalf("bandwidth = %v, want 1000", got)
	}
}

func TestAppList(t *testing.T) {
	full, err := appList(Params{}, defaultQuickApps)
	if err != nil || len(full) != 26 {
		t.Fatalf("full list = %d, %v", len(full), err)
	}
	for i := 1; i < len(full); i++ {
		if full[i-1].Name >= full[i].Name {
			t.Fatalf("full list out of fig. 5 order: %q before %q", full[i-1].Name, full[i].Name)
		}
	}
	quick, err := appList(Params{Quick: true}, []string{"als", "page-rank"})
	if err != nil || len(quick) != 2 || quick[0].Name != "als" {
		t.Fatalf("quick list = %v, %v", quick, err)
	}
	if _, err := appList(Params{Quick: true}, []string{"als", "no-such-app"}); err == nil || !strings.Contains(err.Error(), "no-such-app") {
		t.Fatalf("unknown app: %v", err)
	}
}

// TestFigureAppsResolve: every name in a figure list is a registered
// scenario backed by one of the paper's application profiles.
func TestFigureAppsResolve(t *testing.T) {
	for _, names := range [][]string{defaultQuickApps, fig1Apps, fig1QuickApps, fig7Apps,
		traversalApps, writeBackApps, tierQuickApps} {
		specs, err := scenarios(names)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range specs {
			if s.Profile == nil || s.Family != "legacy" {
				t.Errorf("%s: %s family, profile %v; want a paper profile", s.Name, s.Family, s.Profile)
			}
		}
	}
}

func TestTraceTable(t *testing.T) {
	cfg := memsim.DefaultConfig() // tracing on
	m := memsim.NewMachine(cfg)
	m.Mark("gc-start")
	m.Run(1, func(w *memsim.Worker) {
		for i := 0; i < 64; i++ {
			w.Read(m.NVM, uint64(i)*4096, 4096, true)
		}
	})
	m.Mark("gc-end")
	tb := traceTable("test", m, m.NVM, 0, m.Now(), 8)
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
	sawGC, sawTraffic := false, false
	for _, row := range tb.Rows {
		if row[4] == "*" {
			sawGC = true
		}
		if row[3] != "0" {
			sawTraffic = true
		}
	}
	if !sawGC || !sawTraffic {
		t.Fatalf("table missing GC flag or traffic:\n%s", tb.Render())
	}
	// Degenerate windows yield an empty (but valid) table.
	empty := traceTable("empty", m, m.NVM, 10, 10, 8)
	if len(empty.Rows) != 0 {
		t.Fatal("degenerate window should have no rows")
	}
}

// TestHeapConfigModes: the figures' heap placements put each area on the
// tier the two-tier knobs they replace did (HeapKind DRAM for dramHeap,
// the young generation alone on DRAM for youngOnDRAM, neither for the
// default NVM heap), and machineConfig applies the run-wide parameters.
func TestHeapConfigModes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		place heap.PlacementPolicy
		// eden, survivor, old, humongous, cache, aux, meta
		want [7]string
	}{
		{"nvm heap", heap.PlacementPolicy{}, [7]string{"nvm", "nvm", "nvm", "nvm", "dram", "dram", "nvm"}},
		{"dramHeap", dramHeap, [7]string{"dram", "dram", "dram", "dram", "dram", "dram", "dram"}},
		{"youngOnDRAM", youngOnDRAM, [7]string{"dram", "dram", "nvm", "nvm", "dram", "dram", "nvm"}},
	} {
		spec := Params{}.host(gc.Vanilla())
		spec.Heap.Placement = tc.place
		host, err := workload.NewHost(spec)
		if err != nil {
			t.Fatal(err)
		}
		h, m := host.H, host.M
		pl := h.Placement()
		got := [7]string{pl.Eden, pl.Survivor, pl.Old, pl.Humongous, pl.Cache, pl.Aux, pl.Meta}
		if got != tc.want {
			t.Errorf("%s: placement %v, want %v", tc.name, got, tc.want)
		}
		dev := func(name string) *memsim.Device { tier, _ := m.Tier(name); return tier.Device }
		// Humongous has no device accessor; its tier name is checked above.
		for i, d := range []*memsim.Device{h.EdenDevice(), h.SurvivorDevice(), h.OldDevice(), nil,
			h.CacheDevice(), h.AuxDevice(), h.MetaDevice()} {
			if d != nil && d != dev(tc.want[i]) {
				t.Errorf("%s: area %d on %s, want %s", tc.name, i, d.Name(), tc.want[i])
			}
		}
	}
	var p Params
	if mc := p.machineConfig(true); len(mc.Tiers) != 2 || mc.Tiers[1] != memsim.DefaultConfig().Tiers[1] {
		t.Fatalf("machine config broken: %+v", mc.Tiers)
	}
	if p.machineConfig(false).TraceBucket != 0 {
		t.Fatal("tracing should be off when not requested")
	}
	if p.machineConfig(true).TraceBucket == 0 {
		t.Fatal("tracing should be on when requested")
	}
	p = Params{EagerYield: true, NVMTier: "remote-dram"}
	mc := p.machineConfig(false)
	if !mc.EagerYield || len(mc.Tiers) != 2 || mc.Tiers[1].Name != "nvm" || !mc.Tiers[1].Persistent {
		t.Fatalf("run-wide machine parameters not applied: %+v", mc)
	}
}

// TestReportJSON: the archive format. A cell is a bare JSON number exactly
// where it is one as written; what FormatFloat and the experiments emit
// beside that ("-" for NaN, signed percentages, sizes) is a string, and so
// is what only looks numeric to a laxer reader ("+5", ".5", "1e999").
func TestReportJSON(t *testing.T) {
	bare := []string{"13483", "0.0622", "-2.5", "1.00e-03", "0"}
	quoted := []string{"-", "+5.0%", "4K", "vanilla", "", "+5", ".5", "5.", "0x10", "Inf", "NaN",
		"1e999", "true", "null", `say "hi"\`}
	tab := &metrics.Table{Title: "t", Columns: []string{"name", "v (ms)"}}
	for _, c := range append(bare, quoted...) {
		tab.Rows = append(tab.Rows, []string{"row", c})
	}
	rep := &Report{ID: "x", Tables: []*metrics.Table{tab, {Columns: []string{"other"}, Rows: [][]string{{"7"}}}}}
	out := rep.JSON(`nvmbench -run "x"`)
	var doc struct {
		GeneratedBy string `json:"generated_by"`
		Command     string
		Rows        []map[string]json.RawMessage
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, out)
	}
	if doc.GeneratedBy == "" || doc.Command != `nvmbench -run "x"` || len(doc.Rows) != len(tab.Rows)+1 {
		t.Fatalf("generated_by %q, command %q, %d rows:\n%s", doc.GeneratedBy, doc.Command, len(doc.Rows), out)
	}
	for i, row := range tab.Rows {
		cell, raw := row[1], string(doc.Rows[i]["v (ms)"])
		var str string
		if i < len(bare) {
			if _, err := strconv.ParseFloat(cell, 64); err != nil || raw != cell {
				t.Errorf("cell %q: archived as %s, want the bare number", cell, raw)
			}
		} else if err := json.Unmarshal([]byte(raw), &str); err != nil || str != cell {
			t.Errorf("cell %q: archived as %s, want that string", cell, raw)
		}
	}
	if string(doc.Rows[len(tab.Rows)]["other"]) != "7" {
		t.Errorf("second table's row keyed by its own columns: %v", doc.Rows[len(tab.Rows)])
	}
	if empty := (&Report{}).JSON(""); !json.Valid([]byte(empty)) {
		t.Errorf("empty report is not valid JSON:\n%s", empty)
	}
}
