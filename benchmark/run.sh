#!/usr/bin/env bash
# One command for the whole benchmark.
#
#   benchmark/run.sh [--seed N] [--runs K] [--label NAME] [--only "W ..."] [--smoke] [--no-trace]
#   benchmark/run.sh compare <set A> <set B>
#
# Builds the benchmark (offline), then runs every workload in its own
# process: K end-to-end runs (seeds N, N+1, ...) and one traced run, printing
# every metric with its unit. Results land in benchmark/out/<label>/ as
# <workload>.e2e.jsonl and <workload>.layers.jsonl, one result object per
# line in the format BENCHMARK.json's driver reads. --smoke runs one short
# pass per workload (under 20 s in all) to check that everything still
# builds, runs and passes its exact contracts. Exit code: 0 if every run was
# correct, 2 if an exact contract broke, 1 on a build or usage error.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
bin="$target/release/specee-benchmark"

build() {
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
}

if [[ "${1:-}" == "compare" ]]; then
    [[ $# -eq 3 ]] || { echo "usage: $0 compare <set A> <set B>" >&2; exit 1; }
    build
    exec "$bin" compare "$2" "$3"
fi

seed=1 runs=1 label="" smoke=0 trace=1
workloads="solo_ar live_batch cluster_prefix solo_tree"
while [[ $# -gt 0 ]]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --runs) runs="$2"; shift 2 ;;
        --label) label="$2"; shift 2 ;;
        --only) workloads="$2"; shift 2 ;;
        --smoke) smoke=1; shift ;;
        --no-trace) trace=0; shift ;;
        *) echo "unknown argument $1 (see the header of $0)" >&2; exit 1 ;;
    esac
done
[[ -n "$label" ]] || label="seed$seed"
out="$here/out/$label"
mkdir -p "$out"
build

# The run length comes from the binary's own default (BENCHMARK.json's
# run_seconds) unless this is a smoke pass.
extra=()
if [[ $smoke -eq 1 ]]; then
    extra=(--seconds 0 --smoke)
    runs=1
    trace=0
fi

status=0
for workload in $workloads; do
    : > "$out/$workload.e2e.jsonl"
    : > "$out/$workload.layers.jsonl"
    for ((i = 0; i < runs; i++)); do
        log="$out/$workload.e2e.$((seed + i)).log"
        "$bin" --workload "$workload" --seed "$((seed + i))" --trace 0 \
            --out "$out" ${extra[@]+"${extra[@]}"} > "$log" || status=$?
        sed '$d' "$log"
        tail -n 1 "$log" >> "$out/$workload.e2e.jsonl"
    done
    if [[ $trace -eq 1 ]]; then
        log="$out/$workload.layers.$seed.log"
        "$bin" --workload "$workload" --seed "$seed" --trace 1 \
            --out "$out" ${extra[@]+"${extra[@]}"} > "$log" || status=$?
        sed '$d' "$log"
        tail -n 1 "$log" >> "$out/$workload.layers.jsonl"
    fi
done
echo "results in $out"
exit "$status"
