#!/bin/sh
# bench.sh — one record of the performance ledger.
#
#   sh scripts/bench.sh <label> [seconds]
#
# Runs perfbench/run.sh --seed 1 on all four workloads (cpu-golden,
# cpu-campaign, accel-campaign, served), untraced (--trace 0, the
# end-to-end metrics) and traced (--trace 1, the per-layer metrics), and
# writes each run's provenance record and final JSON result line to
# BENCH_<label>.json at the repository root. seconds is each run's
# measured wall-clock time (default 20, as in BENCHMARK.json). A change
# that claims a performance effect commits one record; compare it with
# the newest earlier BENCH_*.json.
set -eu
cd "$(dirname "$0")/.."
[ $# -ge 1 ] || {
	echo "usage: sh scripts/bench.sh <label> [seconds]" >&2
	exit 2
}
label=$1
seconds=${2:-20}
out="BENCH_${label}.json"
tmp="$(mktemp)"
trap 'rm -f "$tmp" "$out.tmp"' EXIT
{
	printf '{\n  "label": "%s",\n  "seed": 1,\n  "seconds": %s,\n  "runs": [\n' "$label" "$seconds"
	sep=""
	for wl in cpu-golden cpu-campaign accel-campaign served; do
		for trace in 0 1; do
			echo "bench: $wl --trace $trace" >&2
			sh perfbench/run.sh --workload "$wl" --seed 1 --seconds "$seconds" --trace "$trace" >"$tmp"
			prov="$(sed -n 's/^provenance //p' "$tmp")"
			result="$(tail -n 1 "$tmp")"
			printf '%s    {"workload": "%s", "trace": %s,\n     "provenance": %s,\n     "result": %s}' \
				"$sep" "$wl" "$trace" "$prov" "$result"
			sep=",
"
		done
	done
	printf '\n  ]\n}\n'
} >"$out.tmp"
mv "$out.tmp" "$out"
echo "wrote $out"
