#!/bin/sh
# Regenerates the four checked-in experiment archives under results/ from
# the current tree, each experiment in quick mode:
#   BENCH_topology.json   tier-sweep      young gen / write cache across a
#                                         three-tier topology
#   BENCH_faults.json     fault-sweep     survival, retirement and
#                                         self-healing cost as lines wear out
#   BENCH_workloads.json  workload-sweep  collector configs across the YCSB
#                                         core mixes on keyed populations
#   BENCH_fleet.json      fleet           config x fleet size x arrival rate,
#                                         fleet-wide p99/p999/p9999
# Host-time numbers are not archived here: they are paired runs of the
# repository benchmark (make bench-e2e, go run ./benchmarks --compare).
# Usage: scripts/bench_sim.sh
set -eu
cd "$(dirname "$0")/.."

# archive <experiment> <file>: wrap the experiment's CSV rows into a JSON
# document (numeric cells bare, everything else quoted).
archive() {
	go run ./cmd/nvmbench -run "$1" -quick -format csv | awk -v out="$2" -v id="$1" '
BEGIN { FS = "," }
/^#/ { next }
ncols == 0 { ncols = NF; for (i = 1; i <= NF; i++) col[i] = $i; next }
NF == ncols {
	if (rows++) printf ",\n" >> out
	else {
		printf "{\n  \"generated_by\": \"scripts/bench_sim.sh\",\n" > out
		printf "  \"command\": \"nvmbench -run %s -quick -format csv\",\n", id >> out
		printf "  \"rows\": [\n" >> out
	}
	printf "    {" >> out
	for (i = 1; i <= NF; i++) {
		if (i > 1) printf ", " >> out
		if ($i + 0 == $i) printf "\"%s\": %s", col[i], $i >> out
		else printf "\"%s\": \"%s\"", col[i], $i >> out
	}
	printf "}" >> out
}
END { printf "\n  ]\n}\n" >> out }'
	echo "wrote $2"
}

archive tier-sweep results/BENCH_topology.json
archive fault-sweep results/BENCH_faults.json
archive workload-sweep results/BENCH_workloads.json
archive fleet results/BENCH_fleet.json
