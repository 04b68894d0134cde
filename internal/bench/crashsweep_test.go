package bench

import (
	"strings"
	"testing"
)

// TestCrashSweepVerdicts runs the full power-failure campaign and holds
// its verdict policy: every crash point of a configuration with persist
// barriers recovers and verifies, the barrier-free baseline is flagged at
// least once, and the report does not depend on how the points fan out
// over the host pool.
func TestCrashSweepVerdicts(t *testing.T) {
	serial, err := CrashSweep(Params{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	fanned, err := CrashSweep(Params{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := serial.Render(), fanned.Render(); a != b {
		t.Fatalf("report differs between Parallel 1 and 4:\n%s\n---\n%s", a, b)
	}
	ot := serial.Tables[0]
	if !strings.Contains(ot.Title, "(80 crash points") {
		t.Errorf("title %q: want the full sweep's 80 crash points", ot.Title)
	}
	flagged := false
	for _, row := range ot.Rows {
		// config, phase, points, completed, rolled-back, rolled-forward, unrecoverable, verified
		if strings.HasSuffix(row[0], "(no barriers)") {
			flagged = flagged || row[6] != "0"
		} else if row[7] != row[2] {
			t.Errorf("%s %s: %s of %s points verified under barriers", row[0], row[1], row[7], row[2])
		}
	}
	if !flagged {
		t.Error("the no-barrier baseline flagged no crash point: fault injection is not biting")
	}
}
