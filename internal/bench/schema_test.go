package bench

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// The checked-in results/BENCH_*.json files are regenerated by
// make archives; these tests pin their *schemas* (top-level keys,
// experiment columns and row count) to what the
// current tree produces, without comparing timings — so a drive-by change
// to the experiment or the script that silently changes the archive shape
// fails here instead of at the next regeneration.

func readJSON(t *testing.T, path string) map[string]json.RawMessage {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s is not valid JSON: %v", path, err)
	}
	return doc
}

func keysOf[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestBenchTopologyJSONSchema(t *testing.T) {
	doc := readJSON(t, "../../results/BENCH_topology.json")
	wantTop := []string{"command", "generated_by", "rows"}
	if got := keysOf(doc); strings.Join(got, ",") != strings.Join(wantTop, ",") {
		t.Fatalf("top-level keys %v, want %v", got, wantTop)
	}
	var rows []map[string]any
	if err := json.Unmarshal(doc["rows"], &rows); err != nil {
		t.Fatalf("rows: %v", err)
	}
	if len(rows) == 0 {
		t.Fatalf("archive has no rows")
	}

	// Rerun the experiment the archive was generated from (quick mode,
	// like the script) and compare shape: same columns, same row count.
	e, ok := ByID("tier-sweep")
	if !ok {
		t.Fatalf("tier-sweep experiment gone")
	}
	rep, err := e.Run(Params{Scale: 0.5, Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var cols []string
	live := 0
	for _, line := range strings.Split(rep.CSV(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if cols == nil {
			cols = strings.Split(line, ",")
			continue
		}
		live++
	}
	if live != len(rows) {
		t.Fatalf("tier-sweep now yields %d rows, archive has %d (regenerate with make archives)", live, len(rows))
	}
	sort.Strings(cols)
	for i, row := range rows {
		if got := keysOf(row); strings.Join(got, ",") != strings.Join(cols, ",") {
			t.Fatalf("archive row %d keys %v, experiment emits columns %v (regenerate with make archives)", i, got, cols)
		}
	}
}

func TestBenchWorkloadsJSONSchema(t *testing.T) {
	doc := readJSON(t, "../../results/BENCH_workloads.json")
	wantTop := []string{"command", "generated_by", "rows"}
	if got := keysOf(doc); strings.Join(got, ",") != strings.Join(wantTop, ",") {
		t.Fatalf("top-level keys %v, want %v", got, wantTop)
	}
	var rows []map[string]any
	if err := json.Unmarshal(doc["rows"], &rows); err != nil {
		t.Fatalf("rows: %v", err)
	}
	if len(rows) == 0 {
		t.Fatalf("archive has no rows")
	}
	// The archive must cover every YCSB core mix A-F (acceptance
	// criterion), with zipfian and hotspot skews among them.
	scenarios := map[string]bool{}
	dists := map[string]bool{}
	for _, row := range rows {
		if s, ok := row["scenario"].(string); ok {
			scenarios[s] = true
		}
		if d, ok := row["dist"].(string); ok {
			dists[d] = true
		}
	}
	for _, want := range []string{"ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f"} {
		if !scenarios[want] {
			t.Fatalf("archive misses scenario %s (has %v)", want, keysOf(scenarios))
		}
	}
	for _, want := range []string{"zipfian", "hotspot"} {
		if !dists[want] {
			t.Fatalf("archive misses %s-skewed rows (has %v)", want, keysOf(dists))
		}
	}

	// Rerun the experiment the archive was generated from (quick mode,
	// like the script) and compare shape: same columns, same row count.
	e, ok := ByID("workload-sweep")
	if !ok {
		t.Fatalf("workload-sweep experiment gone")
	}
	rep, err := e.Run(Params{Scale: 0.5, Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var cols []string
	live := 0
	for _, line := range strings.Split(rep.CSV(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if cols == nil {
			cols = strings.Split(line, ",")
			continue
		}
		live++
	}
	if live != len(rows) {
		t.Fatalf("workload-sweep now yields %d rows, archive has %d (regenerate with make archives)", live, len(rows))
	}
	sort.Strings(cols)
	for i, row := range rows {
		if got := keysOf(row); strings.Join(got, ",") != strings.Join(cols, ",") {
			t.Fatalf("archive row %d keys %v, experiment emits columns %v (regenerate with make archives)", i, got, cols)
		}
	}
}
