#!/bin/sh
# Enforces per-package statement-coverage floors on the collector core
# from a merged Go cover profile (any -coverpkg scope that includes the
# gated packages). A block counts as covered when any test binary hit it.
# Usage: scripts/cover_check.sh [cover.out]
set -eu
prof="${1:-cover.out}"
[ -f "$prof" ] || { echo "cover_check: no profile at $prof" >&2; exit 2; }

awk '
NR == 1 { next } # "mode:" header
{
	colon = index($1, ":")
	file = substr($1, 1, colon - 1)
	pkg = file
	sub(/\/[^\/]*$/, "", pkg)
	key = pkg SUBSEP $1
	if (!(key in stmts)) { stmts[key] = $2; total[pkg] += $2 }
	if ($3 > 0 && !(key in hit)) { hit[key] = 1; cov[pkg] += $2 }
}
END {
	# Floors for the packages the differential oracle and invariant
	# checker guard; raise them as coverage grows, never lower them to
	# make a failing change pass.
	floor["nvmgc/internal/gc"] = 85
	floor["nvmgc/internal/heap"] = 85
	floor["nvmgc/internal/memsim"] = 85
	floor["nvmgc/internal/cassandra"] = 85
	floor["nvmgc/internal/fleet"] = 85
	floor["nvmgc/internal/workload"] = 85
	floor["nvmgc/internal/workload/generator"] = 90
	floor["nvmgc/internal/check"] = 80 # owns the crash-recovery verdict
	status = 0
	for (pkg in floor) {
		if (total[pkg] == 0) {
			printf "cover_check: %-22s no statements in profile (coverpkg scope too narrow?)\n", pkg
			status = 1
			continue
		}
		pct = 100 * cov[pkg] / total[pkg]
		verdict = "ok"
		if (pct < floor[pkg]) { verdict = "BELOW FLOOR"; status = 1 }
		printf "cover_check: %-22s %6.1f%% (floor %d%%) %s\n", pkg, pct, floor[pkg], verdict
	}
	exit status
}' "$prof"
