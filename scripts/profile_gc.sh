#!/bin/sh
# Records flamegraph-ready CPU and allocation profiles of the GC hot path
# (BenchmarkYoungGC) under the gitignored .bench_build/, beside the
# repository benchmark's own build outputs and traces:
#
#   .bench_build/profile_younggc_cpu.pb.gz   CPU profile
#   .bench_build/profile_younggc_mem.pb.gz   allocation profile
#
# The .pb.gz files open directly in pprof's flamegraph view:
#   go tool pprof -http=:8080 .bench_build/profile_younggc_cpu.pb.gz
#
# A profile describes the host and tree it was taken on, so none is
# checked in; to compare two trees, run this in each.
# Usage: scripts/profile_gc.sh [benchtime]   (default 5x)
set -eu
cd "$(dirname "$0")/.."
BENCHTIME="${1:-5x}"
OUT=.bench_build
mkdir -p "$OUT"
go test -run '^$' -bench BenchmarkYoungGC -benchtime "$BENCHTIME" \
	-cpuprofile "$OUT/profile_younggc_cpu.pb.gz" \
	-memprofile "$OUT/profile_younggc_mem.pb.gz" \
	-o "$OUT/nvmgc_profile.test" .
echo
go tool pprof -top -nodecount=15 "$OUT/nvmgc_profile.test" "$OUT/profile_younggc_cpu.pb.gz"
echo
echo "wrote $OUT/profile_younggc_cpu.pb.gz $OUT/profile_younggc_mem.pb.gz"
