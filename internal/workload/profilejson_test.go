package workload

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nvmgc/internal/gc"
)

func TestLoadProfileFromScratch(t *testing.T) {
	p, err := LoadProfile(strings.NewReader(`{"Name":"mine","Survival":0.2,"EdenFills":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "mine" || p.Survival != 0.2 || p.EdenFills != 3 {
		t.Fatalf("profile %+v", p)
	}
	// Unspecified fields inherit the neutral defaults.
	if p.ObjWords != 6 || p.ChurnDrop != 0.85 {
		t.Fatalf("defaults not applied: %+v", p)
	}
}

func TestLoadProfileWithBase(t *testing.T) {
	p, err := LoadProfile(strings.NewReader(`{"Base":"page-rank","Name":"pr-variant","EdenFills":2}`))
	if err != nil {
		t.Fatal(err)
	}
	base := scenario(t, "page-rank").Profile
	if p.Name != "pr-variant" || p.EdenFills != 2 {
		t.Fatalf("overrides lost: %+v", p)
	}
	if p.Survival != base.Survival || p.ChainLen != base.ChainLen {
		t.Fatalf("base fields lost: %+v", p)
	}
}

// TestLoadProfileBaseIsAPaperProfile: Base names one of the paper's 26
// application profiles; any other registered scenario is an error.
func TestLoadProfileBaseIsAPaperProfile(t *testing.T) {
	accepted := 0
	for _, s := range Scenarios() {
		p, err := LoadProfile(strings.NewReader(`{"Base":"` + s.Name + `","Name":"x"}`))
		if legacy := s.Family == "legacy"; legacy != (err == nil) {
			t.Fatalf("Base %q (%s family): err = %v", s.Name, s.Family, err)
		}
		if err == nil {
			accepted++
			if p.Suite != s.Profile.Suite || p.EdenFills != s.Profile.EdenFills {
				t.Fatalf("Base %q: fields lost: %+v", s.Name, p)
			}
		}
	}
	if accepted != 26 {
		t.Fatalf("%d Base names accepted, want the 26 paper profiles", accepted)
	}
	if _, err := LoadProfile(strings.NewReader(`{"Base":"ycsb-a","Name":"x"}`)); err == nil || !strings.Contains(err.Error(), "ycsb-a") {
		t.Fatalf("Base ycsb-a: %v", err)
	}
}

func TestLoadProfileRejections(t *testing.T) {
	cases := map[string]string{
		"bad json":      `{nope`,
		"unknown base":  `{"Base":"no-such-app","Name":"x"}`,
		"invalid sizes": `{"Name":"x","ObjWords":3}`,
		"zero fills":    `{"Name":"x","EdenFills":0}`,
	}
	for name, in := range cases {
		if _, err := LoadProfile(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// hostileProfiles are mutator-work rates that, loaded unchecked, ran a
// traced run out of memory (1e12), panicked in the LLC once one compute
// step pushed the clock past the simulator's horizon (1e15), and never
// returned (1e300).
var hostileProfiles = []struct{ field, json string }{
	{"CPUNsPerKB", `{"Base":"page-rank","CPUNsPerKB":1000000000000}`},
	{"CPUNsPerKB", `{"Base":"page-rank","CPUNsPerKB":1000000000000000}`},
	{"RandReadsPerKB", `{"Base":"page-rank","RandReadsPerKB":1e300}`},
	{"SeqKBPerKB", `{"Base":"page-rank","SeqKBPerKB":-0.5}`},
}

// TestLoadProfileBoundsWorkRates: each hostile rate is an error naming
// its field, before any machine exists.
func TestLoadProfileBoundsWorkRates(t *testing.T) {
	for _, tc := range hostileProfiles {
		_, err := LoadProfile(strings.NewReader(tc.json))
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: err = %v, want one naming %s", tc.json, err, tc.field)
		}
	}
}

// FuzzLoadProfile: LoadProfile never panics, and whatever it accepts has
// every checked field in range, the work rates within their caps.
func FuzzLoadProfile(f *testing.F) {
	for _, tc := range hostileProfiles {
		f.Add(tc.json)
	}
	f.Add(`{"Base":"als","Name":"als2","Survival":0.3,"EdenFills":2}`)
	f.Add(`{"Name":"x","ObjWords":3}`)
	f.Fuzz(func(t *testing.T, in string) {
		p, err := LoadProfile(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := p.valid(); err != nil {
			t.Fatalf("accepted an invalid profile: %v", err)
		}
		if !(p.CPUNsPerKB <= 1e6 && p.RandReadsPerKB <= 1e3 && p.SeqKBPerKB <= 1e3) {
			t.Fatalf("accepted work rates past their caps: %+v", p)
		}
	})
}

func TestLoadProfileFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.json")
	if err := os.WriteFile(path, []byte(`{"Base":"als","Name":"als2"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadProfileFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "als2" {
		t.Fatalf("profile %+v", p)
	}
	if _, err := LoadProfileFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestCustomProfileRunsEndToEnd(t *testing.T) {
	p, err := LoadProfile(strings.NewReader(`{"Name":"tiny-custom","Survival":0.1,"EdenFills":2}`))
	if err != nil {
		t.Fatal(err)
	}
	h := newEnv(t, "nvm")
	col, err := gc.NewG1(h, gc.Vanilla())
	if err != nil {
		t.Fatal(err)
	}
	r, err := (Spec{Name: p.Name, Profile: &p}).NewRunner(col, Config{GCThreads: 4, Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Allocated == 0 {
		t.Fatal("custom profile allocated nothing")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
