// Command benchmarks is this repository's benchmark: four named
// workloads, eight end-to-end metrics each of them reports, and a traced
// run that takes some ninety per-layer metrics from outside, by timing
// calls into each module's public functions. BENCHMARK.json at the root of
// the repository declares the workloads and metrics; README.md beside
// this file explains them.
//
//	go run ./benchmarks --workload gc-pagerank --seed 1 --seconds 10 --trace 0
//	go run ./benchmarks                       # every workload, one child process each
//	go run ./benchmarks --trace 1             # the per-layer tables and Chrome traces
//	go run ./benchmarks --compare a.jsonl b.jsonl
//
// Run it from the root of the repository.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

//go:embed expected.json
var expectedJSON []byte

// expectedPins maps seed, then workload, to the pinned outcome of one
// iteration at benchmark size.
type expectedPins map[string]map[string][]pin

// cli holds the command line.
type cli struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	spec     string
	out      string
	traceDir string
	repin    bool
	compare  bool
}

func main() {
	var c cli
	flag.StringVar(&c.workload, "workload", "", "workload to run; empty runs all, one child process each")
	flag.Uint64Var(&c.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&c.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&c.trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.StringVar(&c.spec, "spec", "BENCHMARK.json", "the benchmark's declaration")
	flag.StringVar(&c.out, "out", "", "append the run's full record to this JSON-lines file")
	flag.StringVar(&c.traceDir, "trace-dir", ".bench_build", "where a traced run writes trace-<workload>.json")
	flag.BoolVar(&c.repin, "repin", false, "write this seed's outcome to benchmarks/expected.json")
	flag.BoolVar(&c.compare, "compare", false, "compare two -out files given as arguments")
	flag.Parse()
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
}

func run(c cli) error {
	spec, err := loadSpec(c.spec)
	if err != nil {
		return err
	}
	if c.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
	}
	if c.workload == "" {
		return runAll(spec)
	}
	w, ok := workloadByName(c.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	var expected expectedPins
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	opt := runOptions{seed: c.seed, seconds: c.seconds, traced: c.trace == 1, size: 1, quick: c.repin}
	if !c.repin {
		opt.expected = expected[strconv.FormatUint(c.seed, 10)][c.workload]
	}
	if opt.traced {
		opt.traceOut = filepath.Join(c.traceDir, "trace-"+c.workload+".json")
		if opt.shared, err = sharedLayers(c.seed, 1, kernelReps); err != nil {
			return err
		}
	}
	rec, err := measure(w, spec, opt)
	if err != nil {
		return err
	}
	rec.print(os.Stdout, spec)
	if c.repin {
		if err := writePins(c.seed, c.workload, rec.Pins); err != nil {
			return err
		}
	}
	if c.out != "" {
		if err := appendRecord(c.out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll runs every workload in a child process of its own, so that Go
// heap state and the resident-set high-water mark of one workload do not
// leak into the next. The children inherit every flag.
func runAll(spec *benchSpec) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var args []string
	flag.Visit(func(f *flag.Flag) { args = append(args, "--"+f.Name+"="+f.Value.String()) })
	bad := 0
	for _, w := range spec.Workloads {
		var stdout bytes.Buffer
		cmd := exec.Command(self, append(args, "--workload="+w.Name)...)
		cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("%s: last line is no result: %w", w.Name, err)
		}
		if !res.Correct {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d workloads incorrect", bad, len(spec.Workloads))
	}
	return nil
}

const expectedPath = "benchmarks/expected.json"

// writePins replaces one seed's entry for one workload in expected.json.
func writePins(seed uint64, workload string, pins []pin) error {
	data, err := os.ReadFile(expectedPath)
	if err != nil {
		return fmt.Errorf("-repin runs from the root of the repository: %w", err)
	}
	var expected expectedPins
	if err := json.Unmarshal(data, &expected); err != nil {
		return fmt.Errorf("%s: %w", expectedPath, err)
	}
	key := strconv.FormatUint(seed, 10)
	if expected[key] == nil {
		expected[key] = map[string][]pin{}
	}
	expected[key][workload] = pins
	data, err = json.MarshalIndent(expected, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath, append(data, '\n'), 0o644)
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
