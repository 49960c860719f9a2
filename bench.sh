#!/bin/sh
# bench.sh — run the hot-path benchmarks and record the results as
# BENCH_<date>.json, the repo's perf trajectory artifact.
#
# Covered benchmarks:
#   BenchmarkPolicies        one-hyperperiod engine throughput per policy
#   BenchmarkAnalyzerSlack   one slack-analysis invocation (ns/op, allocs/op)
#   BenchmarkEngineDecision  per-scheduling-point engine cost (ns/decision)
#   BenchmarkEngineDecisionFlight  same, with the decision flight
#                            recorder attached (the observability tax)
#   BenchmarkSnapshotCapture freeze one mid-run engine into a
#                            checkpoint envelope (the per-run cost of
#                            every pause, drain, and fleet migration)
#   BenchmarkSnapshotReplay  rebuild a live engine from an envelope by
#                            replaying its first 2000 steps (ns/step)
#
# Usage:
#   ./bench.sh                # default benchtime
#   ./bench.sh -benchtime 2s  # extra args pass through to 'go test'
#   ./bench.sh -gate          # additionally FAIL on >20% ns/op
#                             # regression of AnalyzerSlack,
#                             # EngineDecision[Flight], SnapshotCapture
#                             # or SnapshotReplay vs the most recent
#                             # committed BENCH_*.json (CI guard)
#   BENCH_OUT=custom.json ./bench.sh
#   BENCH_RAW=raw.txt ./bench.sh   # also keep the raw 'go test' output
#                                  # (benchstat-compatible)
#
# After recording, the fresh results are diffed against the most
# recent committed BENCH_*.json and per-benchmark ns/op deltas are
# printed, so every run shows the perf trajectory at a glance.
#
# The JSON records ns/op, B/op, allocs/op, and any custom metrics per
# benchmark, plus the toolchain and commit, so two files from
# different dates diff meaningfully. See docs/performance.md for how
# to compare two BENCH_*.json files (or two raw outputs with
# benchstat).
set -eu
cd "$(dirname "$0")"

gate=0
if [ "${1:-}" = "-gate" ]; then
    gate=1
    shift
fi

date_tag=$(date +%Y-%m-%d)
out=${BENCH_OUT:-BENCH_${date_tag}.json}
raw=${BENCH_RAW:-}
if [ -z "$raw" ]; then
    raw=$(mktemp)
    trap 'rm -f "$raw"' EXIT
fi

pattern='^(BenchmarkPolicies|BenchmarkAnalyzerSlack|BenchmarkEngineDecision|BenchmarkEngineDecisionFlight|BenchmarkSnapshotCapture|BenchmarkSnapshotReplay)$'
echo "bench.sh: running $pattern (this takes a minute)..." >&2
go test -run '^$' -bench "$pattern" -benchmem "$@" . | tee "$raw" >&2

go_version=$(go env GOVERSION)
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)

awk -v date="$date_tag" -v gover="$go_version" -v commit="$commit" '
BEGIN {
    printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"commit\": \"%s\",\n", date, gover, commit
    printf "  \"results\": [\n"
    n = 0
}
$1 ~ /^Benchmark/ && $4 == "ns/op" {
    # Line shape: Benchmark<Name>[/<sub>]-<procs> <iters> <v> <unit> ...
    # Units after ns/op may include custom metrics (e.g. ns/decision)
    # and the -benchmem pair B/op, allocs/op.
    name = $1
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name)
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, $2, $3
    for (i = 5; i <= NF; i += 2) {
        unit = $(i + 1)
        if (unit == "B/op")            printf ", \"bytes_per_op\": %s", $i
        else if (unit == "allocs/op")  printf ", \"allocs_per_op\": %s", $i
        else if (unit == "ns/decision") printf ", \"ns_per_decision\": %s", $i
        else if (unit == "snapshot-bytes") printf ", \"snapshot_bytes\": %s", $i
        else if (unit == "ns/step")    printf ", \"ns_per_step\": %s", $i
    }
    printf "}"
}
END { printf "\n  ]\n}\n" }
' "$raw" > "$out"

count=$(grep -c '"name"' "$out" || true)
if [ "$count" -eq 0 ]; then
    echo "bench.sh: no benchmark results parsed; raw output above" >&2
    exit 1
fi
echo "bench.sh: wrote $out ($count benchmarks)" >&2

# Delta report vs the most recent committed BENCH file (ignoring the
# file just written and any uncommitted ones): per-benchmark ns/op
# change, and with -gate a hard failure on >20% regression of the
# gated benchmarks.
prev=$(git ls-files 'BENCH_*.json' 2>/dev/null | grep -vx "$out" | sort | tail -n 1 || true)
if [ -z "$prev" ] || [ ! -f "$prev" ]; then
    echo "bench.sh: no committed BENCH_*.json to compare against" >&2
    exit 0
fi
echo "bench.sh: ns/op deltas vs $prev:" >&2
regressions=$(awk -v gate="$gate" '
function val(line, key,   s) {
    # Extract the number following "key": on a result line.
    s = line
    if (!sub(".*\"" key "\": *", "", s)) return ""
    sub("[,}].*", "", s)
    return s
}
/"name"/ {
    name = val($0, "name")
    sub("^\"", "", name); sub("\".*", "", name)
    ns = val($0, "ns_per_op") + 0
    if (FILENAME == ARGV[1]) { old[name] = ns; next }
    if (!(name in old) || old[name] <= 0) {
        printf "  %-28s %12.0f  (new)\n", name, ns > "/dev/stderr"
        next
    }
    pct = (ns - old[name]) / old[name] * 100
    printf "  %-28s %12.0f -> %-12.0f %+7.1f%%\n", name, old[name], ns, pct > "/dev/stderr"
    if (pct > 20 && name ~ /^(AnalyzerSlack|EngineDecision|EngineDecisionFlight|SnapshotCapture|SnapshotReplay)$/)
        printf "%s %.1f%%\n", name, pct
}
' "$prev" "$out")
if [ -n "$regressions" ]; then
    echo "bench.sh: hot-path regression(s) over 20%:" >&2
    echo "$regressions" | sed 's/^/  /' >&2
    if [ "$gate" -eq 1 ]; then
        echo "bench.sh: -gate: FAIL" >&2
        exit 1
    fi
    echo "bench.sh: (advisory; re-run with -gate to enforce)" >&2
fi
