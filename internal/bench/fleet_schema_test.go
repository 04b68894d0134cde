package bench

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"
)

// TestBenchFleetJSONSchema pins the BENCH_fleet.json archive shape to
// what the current tree produces (same pattern as the sweeps in
// schema_test.go): top-level provenance keys, the collector-config
// coverage the acceptance criteria name, at least two fleet sizes, and
// column set / row count against a live quick run.
func TestBenchFleetJSONSchema(t *testing.T) {
	doc := readJSON(t, "../../results/BENCH_fleet.json")
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
	// The archive must carry the vanilla / write-cache / persistent
	// tail-latency comparison at two or more fleet sizes, and every row
	// must report the SLO percentiles.
	configs := map[string]bool{}
	sizes := map[float64]bool{}
	for i, row := range rows {
		if c, ok := row["config"].(string); ok {
			configs[c] = true
		}
		if n, ok := row["instances"].(float64); ok {
			sizes[n] = true
		}
		for _, col := range []string{"p99 (ms)", "p999 (ms)", "p9999 (ms)"} {
			if _, ok := row[col].(float64); !ok {
				t.Fatalf("row %d misses numeric %q: %v", i, col, row)
			}
		}
	}
	for _, want := range []string{"vanilla", "writecache", "persistent"} {
		if !configs[want] {
			t.Fatalf("archive misses config %s (has %v)", want, keysOf(configs))
		}
	}
	if len(sizes) < 2 {
		t.Fatalf("archive covers %d fleet size(s), want >= 2", len(sizes))
	}

	// Rerun the experiment the archive was generated from (quick mode,
	// like the script) and compare shape: same columns, same row count.
	e, ok := ByID("fleet")
	if !ok {
		t.Fatalf("fleet experiment gone")
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
		t.Fatalf("fleet now yields %d rows, archive has %d (regenerate with make archives)", live, len(rows))
	}
	sort.Strings(cols)
	for i, row := range rows {
		if got := keysOf(row); strings.Join(got, ",") != strings.Join(cols, ",") {
			t.Fatalf("archive row %d keys %v, experiment emits columns %v (regenerate with make archives)", i, got, cols)
		}
	}
}
