GO ?= go

.PHONY: build test verify loc archives bench-e2e bench-gate profile suite-quick crash-smoke topology-smoke selfcheck-smoke fault-smoke workload-smoke fleet-smoke fuzz-smoke cover

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# verify is the CI gate for the scheduler and the parallel harness: vet
# everything, fail on any file gofmt would rewrite, then run the
# simulator core (its Steps tests included), the heap on it, the host
# pool, the bench harness, the workload run loop and host assembly, the
# fleet and the two packages whose hot-path helpers it shares
# (cassandra.Queue, the generators), and the collector's
# eager-vs-default equivalence sweeps and step-form differential tests
# under the race detector. -short trims workload sizes (the golden
# determinism tests still run, on reduced cases) so the gate finishes in
# minutes even on a single-core host. The four host-allocation pins
# (allocations per young collection, bytes per new heap, bytes per small
# host run, none per ADR line capture) then run uncached and without the
# race detector's overhead.
verify: build
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi
	$(GO) test -race -short -count=1 ./internal/memsim ./internal/heap ./internal/par ./internal/bench ./internal/workload ./internal/fleet ./internal/cassandra ./internal/workload/generator
	$(GO) test -race -short -count=1 -run 'Equivalence|Golden|Steps' ./internal/gc
	$(GO) test -run 'TestYoungGCSteadyStateAllocs|TestNewHeapIsLazy|TestHostFootprint|TestPersistCaptureAllocs' -count=1 ./internal/gc ./internal/heap ./internal/workload ./internal/memsim

# loc prints the three line counts the roadmap tracks: non-test Go outside
# benchmarks/ (the number that should trend down), benchmarks/, and tests.
loc:
	@echo "non-test Go outside benchmarks/: $$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmarks/*' | xargs cat | wc -l)"
	@echo "benchmarks/ (non-test):          $$(find ./benchmarks -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "tests (*_test.go):               $$(find . -name '*_test.go' | xargs cat | wc -l)"

# crash-smoke runs the full power-failure campaign (80 deterministic
# crash points across the GC pause, every barrier configuration plus the
# barrier-free baseline; under a second): post-crash recovery and
# graph-isomorphism verification at each point.
crash-smoke: build
	$(GO) run ./cmd/nvmbench -run crash-sweep -threads 4

# topology-smoke runs the memory-tier sweep (young gen / write cache
# across local DRAM, remote DRAM, and Optane) in quick mode.
topology-smoke: build
	$(GO) run ./cmd/nvmbench -run tier-sweep -quick

# selfcheck-smoke runs the differential-oracle campaign: 50 seeded random
# workload traces replayed through the naive reference collector and every
# real configuration ({G1, PS, +writecache, +all} x {2-tier, 3-tier}) with
# phase-boundary invariant checks on, asserting identical live graphs.
# Deterministic: same seeds, same verdict, at any -parallel setting.
selfcheck-smoke: build
	$(GO) run ./cmd/gcsim -selfcheck -selfcheck-runs 50 -selfcheck-ops 400

# fault-smoke runs the media-fault campaign in quick mode: wear-driven
# line failures, region retirement, tier degradation, and survival-time
# accounting under a churning mutator (full sweep: nvmbench -run fault-sweep).
fault-smoke: build
	$(GO) run ./cmd/nvmbench -run fault-sweep -quick -threads 4

# workload-smoke runs the scenario-engine sweep in quick mode: collector
# configurations across the YCSB core mixes driving keyed populations
# (archived by make archives as results/BENCH_workloads.json).
workload-smoke: build
	$(GO) run ./cmd/nvmbench -run workload-sweep -quick

# fleet-smoke runs the fleet serving experiment in quick mode: collector
# configurations x fleet sizes under open-loop zipfian traffic with
# hedging and retries, reporting fleet-wide p99/p999/p9999 (archived by
# make archives as results/BENCH_fleet.json). A 2-instance gcsim
# run exercises the CLI path on top.
fleet-smoke: build
	$(GO) run ./cmd/nvmbench -run fleet -quick
	$(GO) run ./cmd/gcsim -fleet -fleet-instances 2 -config all

# fuzz-smoke replays the checked-in crash-recovery corpus and fuzzes for
# 30s on top (regression net for the crash points earlier PRs fixed), then
# does the same for 10s with the fleet's traffic parameters (hostile
# sizes, rates and times must come back as errors, and every replay that
# does come back must be whole), for 10s with the fleet merge's series
# shapes (the merge must equal the stable sort of the concatenation, bit
# for bit), for 10s with the zipfian rank table
# (every table-backed draw must equal the formula's and stay in range),
# for 10s with the server queue (every completion must equal the
# binary-search timeline and plain-scan pool's), for 10s each with the
# two inputs a user types: -profile-file JSON (never a panic, nothing out
# of range accepted) and -topology lists (every accepted list builds), and
# for 10s with fuzzed object headers and slots (every reader of a heap
# image reports a region that does not parse, none panics).
fuzz-smoke: build
	$(GO) test ./internal/gc -run FuzzCrashRecovery -fuzz FuzzCrashRecovery -fuzztime 30s
	$(GO) test ./internal/fleet -run FuzzSimulateTraffic -fuzz FuzzSimulateTraffic -fuzztime 10s
	$(GO) test ./internal/fleet -run FuzzMergeSorted -fuzz FuzzMergeSorted -fuzztime 10s
	$(GO) test ./internal/workload/generator -run FuzzZipfianTable -fuzz FuzzZipfianTable -fuzztime 10s
	$(GO) test ./internal/cassandra -run FuzzQueue -fuzz FuzzQueue -fuzztime 10s
	$(GO) test ./internal/workload -run FuzzLoadProfile -fuzz FuzzLoadProfile -fuzztime 10s
	$(GO) test ./cmd/gcsim -run FuzzParseTopology -fuzz FuzzParseTopology -fuzztime 10s
	$(GO) test ./internal/check -run FuzzHeapImage -fuzz FuzzHeapImage -fuzztime 10s

# cover enforces per-package coverage floors on the collector core.
# -coverpkg merges cross-package hits (internal/heap is exercised mostly
# by internal/gc's tests); -short keeps the instrumented bench suite
# within CI budget.
cover:
	$(GO) test -short -covermode=atomic -coverpkg=./internal/... -coverprofile=cover.out ./internal/...
	./scripts/cover_check.sh cover.out

# archives regenerates the four checked-in experiment archives under
# results/ (quick mode, virtual-time numbers only; host time is bench-e2e).
# On an unchanged model, git diff results/ is empty.
archives: build
	$(GO) run ./cmd/nvmbench -run tier-sweep -quick -format json -o results/BENCH_topology.json
	$(GO) run ./cmd/nvmbench -run fault-sweep -quick -format json -o results/BENCH_faults.json
	$(GO) run ./cmd/nvmbench -run workload-sweep -quick -format json -o results/BENCH_workloads.json
	$(GO) run ./cmd/nvmbench -run fleet -quick -format json -o results/BENCH_fleet.json

# bench-e2e runs the repository benchmark (BENCHMARK.json: four workloads,
# one child process each) and archives every run's full record under
# results/, named after the commit; compare two archives with
# `go run ./benchmarks --compare a.jsonl b.jsonl`.
bench-e2e: build
	$(GO) run ./benchmarks --out results/bench-$$(git rev-parse --short HEAD).jsonl

# bench-gate is the CI guard against virtual drift: a short run of each
# benchmark workload at the pinned seed 1 must report every iteration's
# fingerprint equal to benchmarks/expected.json ("correct":true) with no
# failed operation. A scheduler or cache change that moves a virtual
# number, or a replay change that moves a fleet percentile, fails here,
# not only in `go test`. config-matrix is the one workload that drives
# onEvict under ADR, CLWB, the 3-tier device table and PS.
bench-gate: build
	@for w in gc-pagerank mut-ycsb-b config-matrix fleet-serve; do \
		out=$$($(GO) run ./benchmarks --workload $$w --seed 1 --seconds 3 --trace 0 | tail -n 1); \
		echo "$$w $$out"; \
		echo "$$out" | grep -q '"correct":true' && echo "$$out" | grep -q '"failed":0[,}]' || exit 1; \
	done

# profile records CPU and allocation profiles of the GC hot path under the
# gitignored .bench_build/ (go tool pprof -http=:8080 .bench_build/gc_cpu.pb.gz).
profile:
	mkdir -p .bench_build
	$(GO) run ./cmd/gcsim -app page-rank -config all -cpuprofile .bench_build/gc_cpu.pb.gz -memprofile .bench_build/gc_mem.pb.gz

# suite-quick times the full quick figure suite (byte-identical output at
# any -parallel / -eager-yield setting).
suite-quick: build
	time $(GO) run ./cmd/nvmbench -run all -quick -scale 0.2 > /dev/null
