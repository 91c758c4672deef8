#!/usr/bin/env bash
# Build the benchmark (offline, release) and run it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload in one process; the last line of standard output is
#       the JSON result BENCHMARK.json's contract asks for.
#   benchmark/run.sh [--seed N] [--seconds S]
#       every workload of BENCHMARK.json and then the ungated ones, each in
#       its own process, untraced then traced, printing every metric by name.
#
# Run from the repository root (the directory that holds BENCHMARK.json).
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
export SFBENCH_HOME="$here"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to standard error: standard output carries results only.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/sfbench"

workload="" seed=1 seconds=12 trace=""
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        --trace) trace="$2" ;;
        # The workloads and end-to-end metrics of BENCHMARK.json, for scripts.
        --list) exec "$bin" --list ;;
        *) echo "run.sh: unknown argument \`$1\`" >&2; exit 2 ;;
    esac
    shift 2 || { echo "run.sh: \`$1\` needs a value" >&2; exit 2; }
done

if [ -n "$workload" ]; then
    exec "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "${trace:-0}"
fi

# No workload named: all of them, BENCHMARK.json's own list first, then the
# ungated ones the binary knows.
status=0
for name in $("$bin" --list | awk '$1 == "workload" || $1 == "ungated" { print $2 }'); do
    for traced in ${trace:-0 1}; do
        "$bin" --workload "$name" --seed "$seed" --seconds "$seconds" --trace "$traced" || status=1
    done
done
exit "$status"
