#!/bin/sh
# bench.sh — run the hot-path benchmarks and record the results as
# BENCH_<date>-<commit>.json, the repo's perf trajectory artifact.
#
# Covered benchmarks:
#   BenchmarkPolicies        one-hyperperiod engine throughput per policy
#   BenchmarkAnalyzerSlack   one Analyzer.Slack call (ns/op, allocs/op)
#   BenchmarkEngineDecision  per-scheduling-point engine cost (ns/decision)
#   BenchmarkEngineDecisionFlight  same, with the decision flight
#                            recorder attached (the observability tax)
#
# Usage:
#   ./bench.sh                # default benchtime, -count 5
#   ./bench.sh -benchtime 2s  # extra args pass through to 'go test'
#   ./bench.sh -count 10      # (and override the default -count)
#   ./bench.sh -gate          # additionally FAIL on >20% median ns/op
#                             # regression of AnalyzerSlack or
#                             # EngineDecision[Flight] vs the most
#                             # recently committed BENCH_*.json (CI guard)
#   BENCH_OUT=custom.json ./bench.sh
#   BENCH_RAW=raw.txt ./bench.sh   # also keep the raw 'go test' output
#                                  # (benchstat-compatible)
#
# After recording, the fresh results are diffed against the most
# recently committed BENCH_*.json (by commit time, never the file
# being written) and per-benchmark median ns/op deltas are printed, so
# every run shows the perf trajectory at a glance. The commit in the
# name keeps runs of one day from overwriting each other.
#
# Each benchmark runs -count times (5 unless overridden). The JSON
# records, per benchmark, the sample count, the median ns/op with its
# min and max (the spread the 20% gate has to clear), and the median
# of B/op, allocs/op and every custom metric, plus the toolchain,
# commit, CPU count (nproc) and GOMAXPROCS, so two files from
# different dates or machines diff meaningfully. Artifacts written
# before -count was the default hold one sample and no spread; they
# still parse as baselines. See docs/performance.md for how
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
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
out=${BENCH_OUT:-BENCH_${date_tag}-${commit}.json}
raw=${BENCH_RAW:-}
if [ -z "$raw" ]; then
    raw=$(mktemp)
    trap 'rm -f "$raw"' EXIT
fi

pattern='^(BenchmarkPolicies|BenchmarkAnalyzerSlack|BenchmarkEngineDecision|BenchmarkEngineDecisionFlight)$'
echo "bench.sh: running $pattern (this takes a few minutes)..." >&2
# -count precedes "$@" so a -count there wins (the last flag does).
go test -run '^$' -bench "$pattern" -benchmem -count 5 "$@" . | tee "$raw" >&2

go_version=$(go env GOVERSION)
ncpu=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)
# go test names each result Benchmark<Name>-<GOMAXPROCS>, and leaves
# the suffix off when GOMAXPROCS is 1.
procs=$(sed -n 's/^Benchmark[^ ]*-\([0-9][0-9]*\)[[:space:]].*/\1/p' "$raw" | head -n 1)

awk -v date="$date_tag" -v gover="$go_version" -v commit="$commit" \
    -v ncpu="$ncpu" -v procs="${procs:-1}" '
# med sorts the space-separated samples in list and returns their
# median (the mean of the middle pair for an even count), leaving the
# extremes in lo and hi.
function med(list,   v, n, i, j, x) {
    n = split(list, v, " ")
    for (i = 2; i <= n; i++) {
        x = v[i] + 0
        for (j = i - 1; j >= 1 && v[j] + 0 > x; j--) v[j + 1] = v[j]
        v[j + 1] = x
    }
    lo = v[1]; hi = v[n]
    return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
}
function num(x) { return sprintf("%.10g", x) }
BEGIN {
    # Per-benchmark metrics beyond ns/op, in output order.
    nk = split("ns_per_decision ns_per_step snapshot_bytes bytes_per_op allocs_per_op", keys, " ")
    key["ns/decision"] = "ns_per_decision"; key["ns/step"] = "ns_per_step"
    key["snapshot-bytes"] = "snapshot_bytes"; key["B/op"] = "bytes_per_op"
    key["allocs/op"] = "allocs_per_op"
}
$1 ~ /^Benchmark/ && $4 == "ns/op" {
    # Line shape: Benchmark<Name>[/<sub>]-<procs> <iters> <v> <unit> ...
    # Units after ns/op may include custom metrics (e.g. ns/decision)
    # and the -benchmem pair B/op, allocs/op. With -count N each
    # benchmark prints N such lines.
    name = $1
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name)
    if (!(name in samples)) order[++nb] = name
    samples[name]++
    vals[name, "iterations"] = vals[name, "iterations"] " " $2
    vals[name, "ns_per_op"] = vals[name, "ns_per_op"] " " $3
    for (i = 5; i <= NF; i += 2)
        if ($(i + 1) in key) vals[name, key[$(i + 1)]] = vals[name, key[$(i + 1)]] " " $i
}
END {
    printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"commit\": \"%s\",\n", date, gover, commit
    printf "  \"nproc\": %d,\n  \"gomaxprocs\": %d,\n", ncpu, procs
    printf "  \"results\": [\n"
    for (b = 1; b <= nb; b++) {
        name = order[b]
        printf "    {\"name\": \"%s\", \"samples\": %d, \"iterations\": %s", name, samples[name], num(med(vals[name, "iterations"]))
        m = med(vals[name, "ns_per_op"])
        printf ", \"ns_per_op\": %s, \"ns_per_op_min\": %s, \"ns_per_op_max\": %s", num(m), num(lo), num(hi)
        for (k = 1; k <= nk; k++)
            if ((name, keys[k]) in vals) printf ", \"%s\": %s", keys[k], num(med(vals[name, keys[k]]))
        printf "}%s\n", (b < nb ? "," : "")
    }
    printf "  ]\n}\n"
}
' "$raw" > "$out"

count=$(grep -c '"name"' "$out" || true)
if [ "$count" -eq 0 ]; then
    echo "bench.sh: no benchmark results parsed; raw output above" >&2
    exit 1
fi
echo "bench.sh: wrote $out ($count benchmarks)" >&2

# Delta report vs the most recently committed BENCH file (ignoring
# the file just written and any uncommitted ones; ties in commit time
# go to the later name): per-benchmark change of the median ns/op
# (a one-sample artifact's only sample is its median), with the fresh
# min..max alongside, and with -gate a hard failure on >20%
# regression of the gated benchmarks.
prev=$(git ls-files 'BENCH_*.json' 2>/dev/null | grep -vxF "$out" |
    while read -r f; do
        printf '%s %s\n' "$(git log -1 --format=%ct -- "$f")" "$f"
    done | sort -k1,1n -k2 | tail -n 1 | cut -d' ' -f2- || true)
if [ -z "$prev" ] || [ ! -f "$prev" ]; then
    echo "bench.sh: no committed BENCH_*.json to compare against" >&2
    exit 0
fi
echo "bench.sh: median ns/op deltas vs $prev:" >&2
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
    lo = val($0, "ns_per_op_min"); hi = val($0, "ns_per_op_max")
    spread = (lo != "" && hi != "") ? sprintf("  [%.0f..%.0f]", lo, hi) : ""
    printf "  %-28s %12.0f -> %-12.0f %+7.1f%%%s\n", name, old[name], ns, pct, spread > "/dev/stderr"
    if (pct > 20 && name ~ /^(AnalyzerSlack|EngineDecision|EngineDecisionFlight)$/)
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
