GO ?= go

.PHONY: build test verify loc bench-e2e bench-gate profile suite-quick suite-cmp selfcheck-smoke workload-smoke fuzz-smoke cover

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# verify is the CI gate for the scheduler and the parallel harness: vet
# everything, fail on any file gofmt would rewrite, then run the
# simulator core (its Steps tests included), the heap on it, the host
# pool, the bench harness, the workload run loop and host assembly, the
# fleet-serve benchmark's traffic replay (internal/fleet) and the two
# packages whose hot-path helpers it shares (cassandra.Queue, the
# generators), and the collector's
# eager-vs-default equivalence sweeps and step-form differential tests
# under the race detector, plus the pipelined single-worker phase against
# its synchronous reference at -cpu 1,2 (the accountant sharing the
# body's core, then on its own). -short trims workload sizes (the golden
# determinism tests still run, on reduced cases) so the gate finishes in
# minutes even on a single-core host. The host-allocation pins
# (allocations per young collection, bytes per new heap and per heap at
# the address-space cap, no page for a zero store, only header pages for
# a profile's long-lived arrays, bytes per small host run, none per ADR
# line capture) then run uncached and without the race detector's
# overhead, and the young-collection kernel runs once, so
# its setup stays working. The LLC tests run once more without the race
# detector: the reference-model diff with the AVX2 set-scan kernel on
# (where the host has it) and forced off (its assoc=16-portable case), and
# the kernel against the portable loop. Vetting for arm64 too keeps the
# heap's prefetch and the LLC's set-scan non-amd64 stubs compiling (vet's
# asmdecl checks the amd64 assembly).
verify: build
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi
	$(GO) test -race -short -count=1 ./internal/memsim ./internal/heap ./internal/par ./internal/bench ./internal/workload ./internal/fleet ./internal/cassandra ./internal/workload/generator
	$(GO) test -race -short -count=1 -run 'Equivalence|Golden|Steps' ./internal/gc
	$(GO) test -race -short -count=1 -cpu 1,2 -run 'TestPipelinedPhaseMatchesReference' ./internal/memsim
	$(GO) test -run 'TestYoungGCSteadyStateAllocs|TestNewHeapIsLazy|TestNewAtSpaceCap|TestZeroStoreMaterialisesNothing|TestSetupMaterialisesHeaderPages|TestHostFootprint|TestPersistCaptureAllocs' -count=1 ./internal/gc ./internal/heap ./internal/workload ./internal/memsim
	$(GO) test -count=1 -run 'Cache|ScanKernel' ./internal/memsim
	$(GO) test -run '^$$' -bench CollectYoung -benchtime 1x ./internal/gc

# loc prints the three line counts the roadmap tracks: non-test Go outside
# benchmarks/ (the number that should trend down), benchmarks/, and tests.
loc:
	@echo "non-test Go outside benchmarks/: $$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmarks/*' | xargs cat | wc -l)"
	@echo "benchmarks/ (non-test):          $$(find ./benchmarks -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "tests (*_test.go):               $$(find . -name '*_test.go' | xargs cat | wc -l)"

# selfcheck-smoke runs the differential-oracle campaign: 50 seeded random
# workload traces replayed through the naive reference collector and every
# real configuration ({G1, PS, +writecache, +all} x {2-tier, 3-tier}) with
# phase-boundary invariant checks on, asserting identical live graphs.
# Deterministic: same seeds, same verdict, at any -parallel setting.
selfcheck-smoke: build
	$(GO) run ./cmd/gcsim -selfcheck -selfcheck-runs 50 -selfcheck-ops 400

# workload-smoke runs the scenario-engine sweep in quick mode: collector
# configurations across the YCSB core mixes driving keyed populations.
# Then a scan/insert mix runs through gcsim under each of the six request
# distributions, so every generator's wiring is driven from the CLI.
workload-smoke: build
	$(GO) run ./cmd/nvmbench -run workload-sweep -quick
	mkdir -p .bench_build
	$(GO) build -o .bench_build/gcsim ./cmd/gcsim
	@for d in uniform zipfian scrambled hotspot exponential latest; do \
		echo "== gcsim -app ycsb-e -ycsb-dist $$d -scale 0.05"; \
		.bench_build/gcsim -app ycsb-e -ycsb-dist $$d -scale 0.05 || exit 1; \
	done

# fuzz-smoke replays the checked-in crash-recovery corpus and fuzzes for
# 30s on top (under persist barriers every recovered heap must hold the
# pre-GC graph and pass the post-GC invariant checker), then
# does the same for 10s with the fleet replay's traffic parameters (hostile
# sizes, rates and times must come back as errors, and every replay that
# does come back must be whole), for 10s with the fleet merge's series
# shapes (the merge must equal the stable sort of the concatenation, bit
# for bit), for 10s with the zipfian rank table
# (every table-backed draw must equal the formula's and stay in range),
# for 10s with the server queue (every completion must equal the
# binary-search timeline and plain-scan pool's), for 10s each with the
# two inputs a user types: -profile-file JSON (never a panic, nothing out
# of range accepted) and -topology lists (every accepted list builds), and
# for 10s with fuzzed object headers and slots (CheckInvariants,
# Capture and AtBoundary never panic, Capture fails exactly when
# CheckInvariants does, and CheckInvariants reports every region that
# does not parse).
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

# suite-quick times the full quick figure suite (make suite-cmp checks
# that its output is byte-identical across -parallel / -eager-yield).
suite-quick: build
	time $(GO) run ./cmd/nvmbench -run all -quick -scale 0.2 > /dev/null

# suite-cmp runs the full quick figure suite serially and then 4-wide on
# the eager-yield reference schedule, and fails unless the two outputs
# are byte-identical (the determinism invariant, checked end to end).
# Eager-yield is also the synchronous-accounting reference: it charges
# every single-worker phase inline, where the serial run pipelines them.
suite-cmp: build
	mkdir -p .bench_build
	$(GO) build -o .bench_build/nvmbench ./cmd/nvmbench
	.bench_build/nvmbench -run all -quick -scale 0.2 -parallel 1 -o .bench_build/suite-serial.txt
	.bench_build/nvmbench -run all -quick -scale 0.2 -parallel 4 -eager-yield -o .bench_build/suite-eager4.txt
	cmp .bench_build/suite-serial.txt .bench_build/suite-eager4.txt
