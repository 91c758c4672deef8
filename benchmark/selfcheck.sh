#!/usr/bin/env bash
# Run the whole benchmark twice on the same tree with the same seed and fail
# if the two sets disagree: any end-to-end metric apart by more than its
# bound in BENCHMARK.json, any failed job or wrong output, or runs so long
# that the driver's schedule (22 runs of every workload, four more and two
# builds in 3420 s) would not fit.
#
# This host is shared: now and then everything runs up to twice as slow for
# ten or twenty seconds, which no statistic inside one run can see through.
# So a workload whose two runs disagree is run once more, both sets; only a
# disagreement that repeats counts.
#
#   benchmark/selfcheck.sh [--seed N] [--seconds S]
#
# Run from the repository root. Logs stay in benchmark/selfcheck-<pid>/ when a
# check fails.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
seed=1 seconds=12
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        *) echo "selfcheck.sh: unknown argument \`$1\`" >&2; exit 2 ;;
    esac
    shift 2
done

logs="$here/selfcheck-$$"
mkdir -p "$logs"
status=0

manifest="$("$here/run.sh" --list)"
workloads="$(awk '$1 == "workload" { print $2 }' <<<"$manifest")"
# `metric bound`, sorted for join.
awk '$1 == "metric" { print $2, $5 }' <<<"$manifest" | sort >"$logs/bounds"

# run SET WORKLOAD TRACED: one run, its output in a log, its wall time noted.
run() {
    local log="$logs/$1-$2-$3.log" start wall
    start="$(date +%s.%N)"
    if ! "$here/run.sh" --workload "$2" --seed "$seed" --seconds "$seconds" --trace "$3" >"$log"; then
        echo "FAIL $2 (set $1, trace $3): wrong output, failed job or error; see $log"
        status=1
    fi
    wall="$(awk -v s="$start" -v e="$(date +%s.%N)" 'BEGIN { printf "%.1f", e - s }')"
    echo "$2 $wall" >>"$logs/walls"
    echo "set $1  $2  trace=$3  ${wall}s"
}

# `name value` per end-to-end metric, sorted, from a run's last line.
metrics_of() {
    tail -n 1 "$1" | grep -o '"[a-z_0-9.]*":{"value":[^,]*' |
        sed 's/"\([^"]*\)":{"value":/\1 /' | sort
}

# compare WORKLOAD: one row per end-to-end metric; fails if any is apart by
# more than its bound. (A run that printed no result was reported by `run`.)
compare() {
    join <(metrics_of "$logs/a-$1-0.log") <(metrics_of "$logs/b-$1-0.log") | join - "$logs/bounds" |
        awk -v w="$1" '{
            lo = ($2 < $3) ? $2 : $3; hi = ($2 < $3) ? $3 : $2
            apart = (lo > 0) ? hi / lo - 1 : 1
            if (apart > $4) failed = 1
            printf "%s %-13s %-12s %16.4f %16.4f  apart %.4f  bound %.2f\n",
                (apart > $4) ? "FAIL" : "ok  ", w, $1, $2, $3, apart, $4
        } END { exit failed }'
}

for set in a b; do
    for name in $workloads; do
        for traced in 0 1; do
            run "$set" "$name" "$traced"
        done
    done
done

for name in $workloads; do
    if ! compare "$name"; then
        echo "$name: the two runs disagree; running both once more"
        run a "$name" 0
        run b "$name" 0
        if ! compare "$name"; then
            echo "FAIL: $name disagrees beyond the bound twice in a row"
            status=1
        fi
    fi
done

# The driver's schedule: 22 runs of every workload at the longest run seen of
# it, four more at the longest of all, and two builds at twice this host's
# ~25 s each.
if ! awk '{ if ($2 > longest[$1]) longest[$1] = $2; if ($2 > top) top = $2 }
    END {
        total = 4 * top + 100
        for (name in longest) total += 22 * longest[name]
        printf "schedule: 22 runs of each workload + 4 + builds = %.0f s of 3420 s\n", total
        exit (total > 3420)
    }' "$logs/walls"; then
    echo "FAIL: the benchmark does not fit the driver's time cap; shrink the windows uniformly, never the workload list"
    status=1
fi

if [ "$status" -eq 0 ]; then
    rm -rf "$logs"
    echo "selfcheck passed"
fi
exit "$status"
