// End-to-end smoke tests: build and run the example and every CLI binary the
// way a user would. Skipped under -short (they shell out to the Go
// toolchain).
package nvmgc_test

import (
	"os/exec"
	"strings"
	"testing"
)

// goRun returns the command's stdout; nvmbench reports host timings on
// stderr, which would make two runs of one experiment differ.
func goRun(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s%s", args, err, out, &stderr)
	}
	return string(out)
}

func TestExampleQuickstart(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go run")
	}
	out := goRun(t, "./examples/quickstart")
	if !strings.Contains(out, "vanilla") || !strings.Contains(out, "+all") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestGcsimCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go run")
	}
	out := goRun(t, "./cmd/gcsim", "-app", "movie-lens", "-config", "all", "-threads", "8", "-scale", "0.2")
	for _, want := range []string{"[gc", "total:", "write cache:", "gc NVM traffic"} {
		if !strings.Contains(out, want) {
			t.Fatalf("gcsim output missing %q:\n%s", want, out)
		}
	}
	// The scenario listing path: application profiles and keyed scenarios.
	out = goRun(t, "./cmd/gcsim", "-list-workloads")
	if !strings.Contains(out, "page-rank") || !strings.Contains(out, "renaissance") || !strings.Contains(out, "ycsb-b") {
		t.Fatalf("gcsim -list-workloads output:\n%s", out)
	}
}

func TestNvmbenchCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go run")
	}
	out := goRun(t, "./cmd/nvmbench", "-list")
	for _, id := range []string{"fig1", "fig13", "tab-prefetch", "abl-traversal"} {
		if !strings.Contains(out, id) {
			t.Fatalf("nvmbench -list missing %q:\n%s", id, out)
		}
	}
	out = goRun(t, "./cmd/nvmbench", "-run", "tab-prefetch", "-quick", "-format", "csv")
	if !strings.Contains(out, "NVM-prefetch") {
		t.Fatalf("nvmbench csv output:\n%s", out)
	}
	// The device characterisation, and a what-if device: -nvm-tier with a
	// built-in whose profile differs from Optane's. (eadr-nvm shares
	// Optane's profile, so tab-device cannot tell them apart; its eADR
	// domain moves the fleet's persistent rows, which bench's
	// TestNVMTierReachesEveryFigureMachine checks.)
	out = goRun(t, "./cmd/nvmbench", "-run", "tab-device", "-quick")
	if !strings.Contains(out, "write share") || !strings.Contains(out, "vs threads") {
		t.Fatalf("tab-device output:\n%s", out)
	}
	if remote := goRun(t, "./cmd/nvmbench", "-run", "tab-device", "-quick", "-nvm-tier", "remote-dram"); remote == out {
		t.Fatalf("-nvm-tier remote-dram left tab-device unchanged:\n%s", remote)
	}
}

func TestGcdiffCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go run")
	}
	dir := t.TempDir()
	va := dir + "/vanilla.jsonl"
	al := dir + "/all.jsonl"
	goRun(t, "./cmd/gcsim", "-app", "als", "-config", "vanilla", "-scale", "0.3", "-json", va)
	goRun(t, "./cmd/gcsim", "-app", "als", "-config", "all", "-scale", "0.3", "-json", al)
	out := goRun(t, "./cmd/gcdiff", va, al)
	for _, want := range []string{"total pause (ms)", "ratio", "g1/vanilla", "g1/+all"} {
		if !strings.Contains(out, want) {
			t.Fatalf("gcdiff output missing %q:\n%s", want, out)
		}
	}
}
