package bench

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

func quickParams() Params {
	return Params{Scale: 0.15, Quick: true, Seed: 1}
}

func TestRegistry(t *testing.T) {
	exps := All()
	if len(exps) != 20 {
		t.Fatalf("expected 20 experiments, got %d", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
		got, ok := ByID(e.ID)
		if !ok || got.ID != e.ID {
			t.Fatalf("ByID(%q) failed", e.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id should fail")
	}
}

// TestFleetSampleOnlyByID: "fleet" is outside All() (so outside -run
// all), ByID still resolves it for the repository benchmark's suite
// sample, and its render is the same serial and on two host workers.
func TestFleetSampleOnlyByID(t *testing.T) {
	for _, e := range All() {
		if e.ID == "fleet" {
			t.Fatal("fleet is listed in All()")
		}
	}
	e, ok := ByID("fleet")
	if !ok {
		t.Fatal("ByID(fleet) failed")
	}
	var renders []string
	for _, parallel := range []int{1, 2} {
		p := quickParams()
		p.Parallel = parallel
		rep, err := e.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Tables) != 1 || len(rep.Tables[0].Rows) != 2 {
			t.Fatalf("want one table of two rows:\n%s", rep.Render())
		}
		renders = append(renders, rep.Render())
	}
	if renders[0] != renders[1] {
		t.Fatalf("render differs at Parallel 2:\n%s\n%s", renders[0], renders[1])
	}
}

func TestParamsDefaults(t *testing.T) {
	var p Params
	if p.scale() != 0.5 || p.seed() != 1 || p.threads(16) != 16 {
		t.Fatal("defaults wrong")
	}
	p = Params{Scale: 2, Seed: 9, Threads: 4}
	if p.scale() != 2 || p.seed() != 9 || p.threads(16) != 4 {
		t.Fatal("overrides wrong")
	}
}

func TestReportRendering(t *testing.T) {
	rep, err := PrefetchTable(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Render()
	if !strings.Contains(out, "tab-prefetch") || !strings.Contains(out, "NVM-prefetch") {
		t.Fatalf("render:\n%s", out)
	}
	csv := rep.CSV()
	if !strings.Contains(csv, "configuration,result (s)") {
		t.Fatalf("csv:\n%s", csv)
	}
}

func TestPrefetchTableShape(t *testing.T) {
	rep, err := PrefetchTable(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Tables[0].Rows
	get := func(name string) float64 {
		for _, r := range rows {
			if r[0] == name {
				var v float64
				if _, err := sscan(r[1], &v); err != nil {
					t.Fatalf("parse %q: %v", r[1], err)
				}
				return v
			}
		}
		t.Fatalf("row %q missing", name)
		return 0
	}
	dn, dp := get("DRAM-noprefetch"), get("DRAM-prefetch")
	nn, np := get("NVM-noprefetch"), get("NVM-prefetch")
	if dp >= dn || np >= nn {
		t.Fatalf("prefetch should help both devices: dram %g->%g nvm %g->%g", dn, dp, nn, np)
	}
	if nn/np <= dn/dp {
		t.Fatalf("NVM should benefit more than DRAM: %g vs %g", nn/np, dn/dp)
	}
}

func sscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

// quickRenders pins every experiment's Render() at quickParams: the first
// 16 hex digits of its sha256. A harness refactor must leave them all
// alone; a declared model change re-pins them here, in one visible diff.
var quickRenders = map[string]string{
	"fig1":            "93479032ca86f75e",
	"fig2":            "45d6e9841407ac68",
	"fig3":            "b84646339ee0b3d7",
	"tab-prefetch":    "24c5532abf258124",
	"fig5":            "f8070bd9c0edfb2a",
	"fig6":            "f5cd5844b99a375f",
	"fig7":            "7cdcfd2078070d99",
	"fig8":            "a7d5d59f96f4c478",
	"fig9":            "6a4cbbd588e45dfd",
	"fig10":           "2b2b2a5d6ec74b4a",
	"fig11":           "4b9de27302ec592a",
	"fig12":           "457db6bd4d385014",
	"fig13":           "51271b36fe0ea46e",
	"fig14":           "812ff7ffd5a2a79e",
	"tab-device":      "dee809154d68217c",
	"abl-traversal":   "111a0ebbcadbea1b",
	"abl-nt":          "e4fabe7291006133",
	"abl-flush-chunk": "9fede5294e5359f6",
	"abl-hm-threads":  "ba21f4bb9ca523ed",
	"workload-sweep":  "122985b0c060dc1a",
}

// Every experiment must run end-to-end at quick scale, produce at least
// one non-empty table, and render exactly as pinned in quickRenders.
// Under -short a fixed subset still runs — `make verify` puts this file
// under the race detector, and skipping outright would silently drop the
// whole experiment layer from race coverage.
func TestAllExperimentsQuick(t *testing.T) {
	exps := All()
	if testing.Short() {
		short := map[string]bool{"fig1": true, "tab-prefetch": true, "fig13": true}
		reduced := exps[:0:0]
		for _, e := range exps {
			if short[e.ID] {
				reduced = append(reduced, e)
			}
		}
		exps = reduced
	}
	for _, e := range exps {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(quickParams())
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Tables) == 0 {
				t.Fatal("no tables")
			}
			nonEmpty := false
			for _, tb := range rep.Tables {
				if len(tb.Rows) > 0 {
					nonEmpty = true
				}
			}
			if !nonEmpty {
				t.Fatalf("all tables empty:\n%s", rep.Render())
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(rep.Render())))[:16]; got != quickRenders[e.ID] {
				t.Errorf("render moved: sha256 %s, pinned %q\n%s", got, quickRenders[e.ID], rep.Render())
			}
		})
	}
}
