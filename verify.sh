#!/bin/sh
# verify.sh — the repo's tier-1 gate: static checks, the perfbench
# module's vet and smoke test, the full test suite under the race
# detector, a time-boxed native fuzz pass (10 s per target: the
# internal/core property targets and the job-checkpoint decoder),
# the full experiment run compared byte
# for byte with docs/results-full.txt, an end-to-end smoke test of the
# dvsd daemon (start, run one lpSHE simulation over HTTP, assert zero
# deadline misses, scrape /metrics.prom and check the exposition is
# well-formed, drain cleanly), a chaos smoke (daemon under
# deterministic fault injection, hammered through the self-healing
# client with zero surfaced errors, clean drain), a checkpoint smoke
# run by one body against dvsd and against an embedded dvsfleet (a
# long job SIGTERMed mid-simulation with -checkpoint-dir set must
# drain cleanly to a durable version 2 document of runs and outcomes,
# and a restart over the same directory must re-run the unfinished
# runs to energies byte-identical to an uninterrupted run), a
# fleet smoke
# (3-worker embedded dvsfleet: hammer through the router, dvsexp grid
# byte-identical to the single-process run before AND after killing a
# worker, a fleet job's results equal to the same batch on one worker,
# failover observed in the metrics, clean drain), a trace
# smoke (tracing-enabled fleet: one client trace ID observed in
# coordinator and worker logs and in the federated /debug/trace dump,
# verdict bytes identical to a tracing-disabled run, dvssim -trace
# flight export well-formed, dvsscen run -explain reporting decision
# paths), a scenario
# pass (dvsscen validates and replays the whole scenarios/ corpus
# with assertions enforced, and one document must produce
# byte-identical verdicts via dvsscen run, dvsd /v1/scenario, and the
# dvsfleet coordinator, and dvscheck -replay must print the same
# verdict bytes as dvsscen run -json), and a dvscheck audit pass
# (corpus replay, oracle self-test, and a 25-document fuzz smoke).
set -eu

cd "$(dirname "$0")"

echo "==> gofmt -l"
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "FAIL: gofmt would reformat:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...
# perfbench is a separate module that root `go build ./...` skips;
# vetting it catches exported-API changes that break the benchmark,
# and its smoke test runs every workload's set-up and a short window
# of each, traced and untraced, against the packages as changed.
(cd perfbench && go vet .)
echo "==> perfbench go test ."
(cd perfbench && go test .)

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> bench smoke (compile + one iteration of every benchmark)"
# -benchtime=1x runs each benchmark body once: no timing value, but
# every allocation guard, b.ReportAllocs path, and the parallel
# harness the benchmarks drive get exercised on every verify.
go test -run '^$' -bench . -benchtime=1x ./... >/dev/null

echo "==> perf pass (alloc guards + hot-path smoke)"
# The AllocsPerRun guards pin the zero-steady-state-allocation
# property of the analyzer hot path (Slack, the staircase cycle,
# SelectSpeed, Counters), of laEDF's decision and DRA's job cycle,
# and hold an engine run's allocations to a bound that does not grow
# with the horizon (job states are recycled); then a fixed-count run
# of the two hot-path benchmarks checks the pinned alloc budgets and
# an order-of-magnitude latency ceiling. The ceiling is deliberately
# loose (a full revert of the incremental analyzer trips it;
# scheduler noise cannot), and the fine-grained 20% gate lives in
# `./bench.sh -gate` where benchtime is long enough to trust. See
# BENCH_*.json for the recorded trajectory.
go test -run 'SteadyStateAllocs|ZeroAllocs|CountersMapReused' -count=1 ./internal/core/ ./internal/dvs/ ./internal/sim/
# BenchmarkEngineDecisionFlight shares EngineDecision's budgets via
# the awk prefix match: the flight recorder must fit inside them.
PERF_OUT=$(go test -run '^$' -bench '^(BenchmarkAnalyzerSlack|BenchmarkEngineDecision|BenchmarkEngineDecisionFlight)$' -benchtime=100x -benchmem .)
echo "$PERF_OUT" | awk '
/^BenchmarkAnalyzerSlack/ {
    for (i = 2; i <= NF; i++) if ($(i+1) == "allocs/op" && $i + 0 > 0) {
        printf "FAIL: AnalyzerSlack allocates %s/op, want 0\n", $i; bad = 1
    }
}
/^BenchmarkEngineDecision/ {
    for (i = 2; i <= NF; i++) {
        if ($(i+1) == "allocs/op" && $i + 0 > 64) {
            printf "FAIL: EngineDecision at %s allocs/op, budget 64\n", $i; bad = 1
        }
        if ($(i+1) == "ns/decision" && $i + 0 > 2000) {
            printf "FAIL: EngineDecision at %s ns/decision, ceiling 2000\n", $i; bad = 1
        }
    }
}
END { exit bad }
' || { echo "$PERF_OUT" >&2; exit 1; }

echo "==> native fuzz pass (10 s per target)"
# go test replays every target's seeds and committed corpus; here the
# fuzzer also searches past them. An input it finds failing is written
# to the package's testdata/fuzz/<Target>/ and fails this step: commit
# it with the mend, so every later go test replays it.
for target in FuzzSlackMatchesBruteForce FuzzIncrementalMatchesRescan \
    FuzzIncrementalMatchesRescanWithPhantoms FuzzLpSHENeverMisses FuzzLpSHEJitter; do
    go test -run '^$' -fuzz "^$target\$" -fuzztime 10s ./internal/core
done
go test -run '^$' -fuzz '^FuzzJobCheckpoint$' -fuzztime 10s ./internal/server

echo "==> report bytes (dvsexp -exp all vs docs/results-full.txt)"
# The committed full run must be the live one byte for byte: it cannot
# drift from the code, and a change meant to keep every reading (a
# performance change) fails here if it moves one.
RESULTS=$(mktemp -t results.XXXXXX)
go run ./cmd/dvsexp -exp all -workers 2 >"$RESULTS"
if ! cmp -s docs/results-full.txt "$RESULTS"; then
    echo "FAIL: dvsexp -exp all -workers 2 differs from docs/results-full.txt:" >&2
    diff docs/results-full.txt "$RESULTS" >&2 || true
    rm -f "$RESULTS"
    exit 1
fi
rm -f "$RESULTS"

echo "==> dvsd smoke test"
DVSD_BIN=$(mktemp -t dvsd.XXXXXX)
FLEET_BIN=$(mktemp -t dvsfleet.XXXXXX)
SCEN_BIN=$(mktemp -t dvsscen.XXXXXX)
SCEN_TMP=$(mktemp -d -t dvsscen.XXXXXX)
DVSD_LOG=$(mktemp -t dvsd.log.XXXXXX)
DVSD_PID=""
FLEET_PID=""
FLEET_TMP=""
cleanup() {
    [ -n "$DVSD_PID" ] && kill "$DVSD_PID" 2>/dev/null || true
    [ -n "$FLEET_PID" ] && kill "$FLEET_PID" 2>/dev/null || true
    rm -f "$DVSD_BIN" "$FLEET_BIN" "$SCEN_BIN" "$DVSD_LOG"
    rm -rf "$SCEN_TMP"
    [ -n "$FLEET_TMP" ] && rm -rf "$FLEET_TMP"
}
trap cleanup EXIT

go build -o "$DVSD_BIN" ./cmd/dvsd
go build -o "$FLEET_BIN" ./cmd/dvsfleet
go build -o "$SCEN_BIN" ./cmd/dvsscen
"$DVSD_BIN" -addr 127.0.0.1:0 >"$DVSD_LOG" 2>&1 &
DVSD_PID=$!

# The daemon logs "listening on 127.0.0.1:<port>" at startup.
ADDR=""
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$DVSD_LOG" | head -n1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "FAIL: dvsd did not start:" >&2
    cat "$DVSD_LOG" >&2
    exit 1
fi

BODY='{
  "task_set": {"tasks": [{"wcet": 1, "period": 4}, {"wcet": 2, "period": 12}, {"wcet": 2, "period": 15}]},
  "policy": "lpshe",
  "workload": {"kind": "uniform", "lo": 0.5, "hi": 1, "seed": 7},
  "strict": true
}'
RESP=$(mktemp -t dvsd.resp.XXXXXX)
STATUS=$(curl -s -o "$RESP" -w '%{http_code}' --max-time 2 -d "$BODY" "http://$ADDR/v1/simulate")
if [ "$STATUS" != "200" ]; then
    echo "FAIL: /v1/simulate returned HTTP $STATUS:" >&2
    cat "$RESP" >&2
    rm -f "$RESP"
    exit 1
fi
if ! grep -q '"deadline_misses": 0' "$RESP"; then
    echo "FAIL: expected zero deadline misses, got:" >&2
    cat "$RESP" >&2
    rm -f "$RESP"
    exit 1
fi
rm -f "$RESP"

# Scenario transport byte-identity, leg 1: the daemon's /v1/scenario
# response must equal the local `dvsscen run -json` of the same file
# byte for byte.
SCEN_DOC=scenarios/baseline-quickstart.yaml
"$SCEN_BIN" run -json "$SCEN_DOC" >"$SCEN_TMP/local.json"
STATUS=$(curl -s -o "$SCEN_TMP/dvsd.json" -w '%{http_code}' --max-time 10 \
    --data-binary @"$SCEN_DOC" "http://$ADDR/v1/scenario")
if [ "$STATUS" != "200" ]; then
    echo "FAIL: /v1/scenario returned HTTP $STATUS:" >&2
    cat "$SCEN_TMP/dvsd.json" >&2
    exit 1
fi
cmp -s "$SCEN_TMP/local.json" "$SCEN_TMP/dvsd.json" || {
    echo "FAIL: dvsd scenario verdict differs from local dvsscen run" >&2
    diff "$SCEN_TMP/local.json" "$SCEN_TMP/dvsd.json" >&2 || true
    exit 1
}

# Observability smoke: scrape the Prometheus endpoint and fail on any
# line that is neither a comment nor a `name{labels} value` sample,
# then check the metric families the run above must have populated.
PROM=$(mktemp -t dvsd.prom.XXXXXX)
STATUS=$(curl -s -o "$PROM" -w '%{http_code}' --max-time 2 "http://$ADDR/metrics.prom")
if [ "$STATUS" != "200" ]; then
    echo "FAIL: /metrics.prom returned HTTP $STATUS" >&2
    rm -f "$PROM"
    exit 1
fi
BAD=$(awk '!/^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* / &&
           !/^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? ([0-9.eE+-]+|[+-]?Inf|NaN)$/' "$PROM")
if [ -n "$BAD" ]; then
    echo "FAIL: malformed /metrics.prom lines:" >&2
    echo "$BAD" >&2
    rm -f "$PROM"
    exit 1
fi
for METRIC in dvsd_http_requests_total dvsd_sims_total dvsd_policy_run_seconds_bucket dvsd_cache_misses_total dvsd_uptime_seconds; do
    grep -q "^$METRIC" "$PROM" || {
        echo "FAIL: /metrics.prom missing $METRIC:" >&2
        cat "$PROM" >&2
        rm -f "$PROM"
        exit 1
    }
done
grep -q '^dvsd_sims_total 1$' "$PROM" || {
    echo "FAIL: expected dvsd_sims_total 1 after one run:" >&2
    grep '^dvsd_sims_total' "$PROM" >&2 || true
    rm -f "$PROM"
    exit 1
}
rm -f "$PROM"

kill -TERM "$DVSD_PID"
wait "$DVSD_PID" || { echo "FAIL: dvsd exited non-zero on SIGTERM" >&2; exit 1; }
DVSD_PID=""
grep -q "drained, bye" "$DVSD_LOG" || { echo "FAIL: no clean drain message" >&2; cat "$DVSD_LOG" >&2; exit 1; }
echo "    dvsd smoke test OK ($ADDR, lpSHE run, 0 misses, scenario verdict byte-identical, metrics.prom well-formed, clean drain)"

echo "==> chaos smoke test (dvsd -chaos + self-healing client)"
: >"$DVSD_LOG"
"$DVSD_BIN" -addr 127.0.0.1:0 -chaos 42 >"$DVSD_LOG" 2>&1 &
DVSD_PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$DVSD_LOG" | head -n1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "FAIL: chaos dvsd did not start:" >&2
    cat "$DVSD_LOG" >&2
    exit 1
fi
# Every request must come back clean despite ~30% of them being
# delayed, errored, dropped, or truncated by the injector: the retry
# layer owns the recovery, dvshammer exits non-zero otherwise.
go run ./cmd/dvshammer -addr "$ADDR" -n 50 -c 4 -seed 7 || {
    echo "FAIL: chaos hammer surfaced unrecovered errors" >&2
    cat "$DVSD_LOG" >&2
    exit 1
}
# The injector must actually have fired, and the chaos daemon must
# still drain cleanly.
PROM=$(mktemp -t dvsd.prom.XXXXXX)
curl -s --max-time 2 -o "$PROM" "http://$ADDR/metrics.prom"
grep -q '^dvsd_chaos_injected_total{fault="' "$PROM" || {
    echo "FAIL: chaos mode injected no faults:" >&2
    grep '^dvsd_chaos' "$PROM" >&2 || true
    rm -f "$PROM"
    exit 1
}
rm -f "$PROM"
kill -TERM "$DVSD_PID"
wait "$DVSD_PID" || { echo "FAIL: chaos dvsd exited non-zero on SIGTERM" >&2; exit 1; }
DVSD_PID=""
grep -q "drained, bye" "$DVSD_LOG" || { echo "FAIL: no clean drain after chaos" >&2; cat "$DVSD_LOG" >&2; exit 1; }
echo "    chaos smoke test OK ($ADDR, 50 requests self-healed, clean drain)"

echo "==> checkpoint smoke tests (drain to disk, restart, resume: dvsd and dvsfleet)"
# One body, run against dvsd and against an embedded dvsfleet: a long
# job is interrupted mid-simulation by SIGTERM with a drain deadline it
# cannot meet; with -checkpoint-dir set the service must still exit
# cleanly, leaving the job checkpointed on disk. A restart over the
# same directory must recover and finish it, and the final energies
# must equal an uninterrupted run on a fresh dvsd.
CKPT_JOB='{
  "name": "verify-ckpt",
  "runs": [
    {"task_set": {"tasks": [{"wcet": 1, "period": 4}, {"wcet": 2, "period": 12}, {"wcet": 2, "period": 15}]},
     "policy": "lpshe", "horizon": 8000000,
     "workload": {"kind": "uniform", "lo": 0.5, "hi": 1, "seed": 1}},
    {"task_set": {"tasks": [{"wcet": 1, "period": 4}, {"wcet": 2, "period": 12}, {"wcet": 2, "period": 15}]},
     "policy": "cc", "horizon": 8000000,
     "workload": {"kind": "uniform", "lo": 0.5, "hi": 1, "seed": 2}}
  ]
}'
# start_service CMD...: start CMD on a free port, logging to $DVSD_LOG;
# sets DVSD_PID and ADDR (the address CMD logs as "listening on").
start_service() {
    : >"$DVSD_LOG"
    "$@" -addr 127.0.0.1:0 >"$DVSD_LOG" 2>&1 &
    DVSD_PID=$!
    ADDR=""
    for _ in $(seq 1 50); do
        ADDR=$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$DVSD_LOG" | head -n1)
        [ -n "$ADDR" ] && break
        sleep 0.1
    done
    [ -n "$ADDR" ] || { echo "FAIL: $* did not start:" >&2; cat "$DVSD_LOG" >&2; exit 1; }
}
# stop_service NAME: SIGTERM the service, which must exit 0 with a
# clean drain message.
stop_service() {
    kill -TERM "$DVSD_PID"
    wait "$DVSD_PID" || { echo "FAIL: $1 exited non-zero on SIGTERM" >&2; cat "$DVSD_LOG" >&2; exit 1; }
    DVSD_PID=""
    grep -q "drained, bye" "$DVSD_LOG" || { echo "FAIL: no clean drain from $1" >&2; cat "$DVSD_LOG" >&2; exit 1; }
}
# job_energies ID: wait for job ID to finish done, then print its
# runs' energies.
job_energies() {
    DONE=""
    for _ in $(seq 1 150); do
        if curl -s --max-time 2 "http://$ADDR/v1/jobs/$1" | grep -q '"state": "done"'; then
            DONE=yes
            break
        fi
        sleep 0.2
    done
    [ -n "$DONE" ] || {
        echo "FAIL: job $1 did not finish:" >&2
        curl -s --max-time 2 "http://$ADDR/v1/jobs" >&2 || true
        cat "$DVSD_LOG" >&2
        exit 1
    }
    curl -s --max-time 5 "http://$ADDR/v1/jobs/$1?results=1" | grep -o '"energy": [0-9.e+-]*'
}

# Reference run on a fresh daemon (no checkpoint dir, cold cache).
start_service "$DVSD_BIN"
REF_ID=$(curl -s --max-time 2 -d "$CKPT_JOB" "http://$ADDR/v1/jobs" | sed -n 's/.*"id": "\(j[0-9]*\)".*/\1/p')
[ -n "$REF_ID" ] || { echo "FAIL: reference job not accepted" >&2; exit 1; }
job_energies "$REF_ID" >"$SCEN_TMP/reference.energies"
stop_service "reference dvsd"
[ -s "$SCEN_TMP/reference.energies" ] || { echo "FAIL: no energies extracted from the reference job" >&2; exit 1; }

# checkpoint_smoke NAME CMD...: drain the job to disk from the service
# CMD starts, restart CMD over the same directory, and compare the
# recovered job's energies with the reference run's.
checkpoint_smoke() {
    NAME=$1
    shift
    CKPT_DIR="$SCEN_TMP/ckpt-$NAME"
    start_service "$@" -checkpoint-dir "$CKPT_DIR" -drain-timeout 500ms
    STATUS=$(curl -s -o /dev/null -w '%{http_code}' --max-time 2 -d "$CKPT_JOB" "http://$ADDR/v1/jobs")
    [ "$STATUS" = "202" ] || { echo "FAIL: $NAME checkpoint job not accepted (HTTP $STATUS)" >&2; exit 1; }
    sleep 0.3
    stop_service "$NAME with a checkpoint dir"
    grep -q "unfinished jobs checkpointed" "$DVSD_LOG" || {
        echo "FAIL: $NAME drain did not report checkpointing (job finished too fast?)" >&2
        cat "$DVSD_LOG" >&2
        exit 1
    }
    ls "$CKPT_DIR"/*.ckpt.json >/dev/null 2>&1 || {
        echo "FAIL: no $NAME checkpoint document on disk after drain" >&2
        ls -la "$CKPT_DIR" >&2 || true
        exit 1
    }
    # The document records runs and outcomes only: version 2, no
    # mid-run snapshots.
    grep -q '"version": 2,' "$CKPT_DIR"/*.ckpt.json || {
        echo "FAIL: $NAME drained checkpoint document is not version 2" >&2
        cat "$CKPT_DIR"/*.ckpt.json >&2
        exit 1
    }
    if grep -q '"snapshots"' "$CKPT_DIR"/*.ckpt.json; then
        echo "FAIL: $NAME drained checkpoint document carries a snapshots map" >&2
        exit 1
    fi

    start_service "$@" -checkpoint-dir "$CKPT_DIR"
    grep -q "checkpoint recovered" "$DVSD_LOG" || {
        echo "FAIL: $NAME restart did not recover the checkpoint" >&2
        cat "$DVSD_LOG" >&2
        exit 1
    }
    JOB_ID=$(curl -s --max-time 2 "http://$ADDR/v1/jobs" | sed -n 's/.*"id": "\([a-z]*[0-9][0-9]*\)".*/\1/p' | head -n1)
    [ -n "$JOB_ID" ] || { echo "FAIL: $NAME restart lists no recovered job" >&2; exit 1; }
    job_energies "$JOB_ID" >"$SCEN_TMP/$NAME.energies"
    stop_service "recovering $NAME"
    cmp -s "$SCEN_TMP/$NAME.energies" "$SCEN_TMP/reference.energies" || {
        echo "FAIL: $NAME resumed job energies differ from uninterrupted run" >&2
        diff "$SCEN_TMP/$NAME.energies" "$SCEN_TMP/reference.energies" >&2 || true
        exit 1
    }
    echo "    $NAME checkpoint smoke test OK (drain wrote a version 2 document to disk, restart re-ran the rest, energies byte-identical)"
}
checkpoint_smoke dvsd "$DVSD_BIN"
checkpoint_smoke dvsfleet "$FLEET_BIN" -embedded -workers 2

echo "==> fleet smoke test (dvsfleet -embedded, 3 workers)"
FLEET_TMP=$(mktemp -d -t dvsfleet.XXXXXX)
FLEET_LOG="$FLEET_TMP/fleet.log"
go build -o "$FLEET_TMP/dvshammer" ./cmd/dvshammer
go build -o "$FLEET_TMP/dvsexp" ./cmd/dvsexp

"$FLEET_BIN" -addr 127.0.0.1:0 -embedded -workers 3 >"$FLEET_LOG" 2>&1 &
FLEET_PID=$!
FADDR=""
for _ in $(seq 1 50); do
    FADDR=$(sed -n 's/.*dvsfleet: listening on \([0-9.:]*\).*/\1/p' "$FLEET_LOG" | head -n1)
    [ -n "$FADDR" ] && break
    sleep 0.1
done
if [ -z "$FADDR" ]; then
    echo "FAIL: dvsfleet did not start:" >&2
    cat "$FLEET_LOG" >&2
    exit 1
fi

# Load through the router: every request must succeed, and the JSON
# summary must say so explicitly.
"$FLEET_TMP/dvshammer" -addr "$FADDR" -n 50 -c 4 -seed 9 -json >"$FLEET_TMP/hammer.json" || {
    echo "FAIL: fleet hammer surfaced errors" >&2
    cat "$FLEET_TMP/hammer.json" "$FLEET_LOG" >&2
    exit 1
}
grep -q '"failed":0' "$FLEET_TMP/hammer.json" || {
    echo "FAIL: fleet hammer summary reports failures:" >&2
    cat "$FLEET_TMP/hammer.json" >&2
    exit 1
}

# The determinism guarantee, end to end over real processes: the t2
# grid through the fleet must be byte-identical to the in-process run.
"$FLEET_TMP/dvsexp" -exp t2 -quick -seeds 2 >"$FLEET_TMP/local.out"
"$FLEET_TMP/dvsexp" -exp t2 -quick -seeds 2 -addr "$FADDR" >"$FLEET_TMP/fleet.out"
cmp -s "$FLEET_TMP/local.out" "$FLEET_TMP/fleet.out" || {
    echo "FAIL: fleet t2 report differs from single-process report" >&2
    diff "$FLEET_TMP/local.out" "$FLEET_TMP/fleet.out" >&2 || true
    exit 1
}

# Scenario transport byte-identity, leg 2: the same document through
# the fleet coordinator (validated locally, routed by document key,
# verdict bytes streamed through) must match the local run too.
STATUS=$(curl -s -o "$FLEET_TMP/scen.json" -w '%{http_code}' --max-time 10 \
    --data-binary @"$SCEN_DOC" "http://$FADDR/v1/scenario")
if [ "$STATUS" != "200" ]; then
    echo "FAIL: fleet /v1/scenario returned HTTP $STATUS:" >&2
    cat "$FLEET_TMP/scen.json" >&2
    exit 1
fi
cmp -s "$SCEN_TMP/local.json" "$FLEET_TMP/scen.json" || {
    echo "FAIL: fleet scenario verdict differs from local dvsscen run" >&2
    diff "$SCEN_TMP/local.json" "$FLEET_TMP/scen.json" >&2 || true
    exit 1
}

# Fleet jobs run on dvsd's job store: one small batch through the
# coordinator and the same batch posted straight to one worker must
# return the same results array once the per-execution serving
# metadata (wall_ns, cached) is dropped.
FLEET_JOB='{
  "name": "verify-fleet-job",
  "sweep": {"n": 3, "u": [0.5, 0.8], "policies": ["lpshe", "cc", "la"], "seeds": 2,
            "periods": [10, 20, 25, 50, 100]}
}'
JOB_WORKER=$(curl -s --max-time 2 "http://$FADDR/v1/cluster" |
    sed -n 's/.*"addr": "\([0-9.:]*\)".*/\1/p' | head -n1)
FJOB=$(curl -s --max-time 5 -d "$FLEET_JOB" "http://$FADDR/v1/jobs" | sed -n 's/.*"id": "\(fj[0-9]*\)".*/\1/p')
WJOB=$(curl -s --max-time 5 -d "$FLEET_JOB" "http://$JOB_WORKER/v1/jobs" | sed -n 's/.*"id": "\(j[0-9]*\)".*/\1/p')
if [ -z "$FJOB" ] || [ -z "$WJOB" ]; then
    echo "FAIL: fleet job '$FJOB' or worker $JOB_WORKER job '$WJOB' not accepted" >&2
    exit 1
fi
# Both streams close after their "end" event.
curl -sN --max-time 30 "http://$FADDR/v1/jobs/$FJOB/events" >"$FLEET_TMP/fjob.sse"
curl -sN --max-time 30 "http://$JOB_WORKER/v1/jobs/$WJOB/events" >/dev/null
grep -A1 '^event: end$' "$FLEET_TMP/fjob.sse" | grep -q '"state":"done"' || {
    echo "FAIL: fleet job $FJOB stream did not end done:" >&2
    cat "$FLEET_TMP/fjob.sse" >&2
    exit 1
}
job_results() {
    curl -s --max-time 5 "http://$1/v1/jobs/$2?results=1" | sed -n '/"results": \[/,$p' |
        sed -e '/"wall_ns":/d' -e '/"cached":/d' -e 's/,$//'
}
job_results "$FADDR" "$FJOB" >"$FLEET_TMP/fjob.results"
job_results "$JOB_WORKER" "$WJOB" >"$FLEET_TMP/wjob.results"
grep -q '"energy"' "$FLEET_TMP/fjob.results" || {
    echo "FAIL: fleet job $FJOB returned no results" >&2
    exit 1
}
cmp -s "$FLEET_TMP/fjob.results" "$FLEET_TMP/wjob.results" || {
    echo "FAIL: fleet job results differ from the same batch on worker $JOB_WORKER" >&2
    diff "$FLEET_TMP/fjob.results" "$FLEET_TMP/wjob.results" >&2 || true
    exit 1
}

# Kill one worker (the cluster endpoint hard-stops it, crash-style)
# and rerun the grid: failover must keep the report byte-identical.
VICTIM=$(curl -s --max-time 2 "http://$FADDR/v1/cluster" |
    sed -n 's/.*"addr": "\([0-9.:]*\)".*/\1/p' | head -n1)
if [ -z "$VICTIM" ]; then
    echo "FAIL: /v1/cluster listed no workers" >&2
    curl -s --max-time 2 "http://$FADDR/v1/cluster" >&2 || true
    exit 1
fi
STATUS=$(curl -s -o /dev/null -w '%{http_code}' --max-time 2 -X POST "http://$FADDR/v1/cluster/kill?worker=$VICTIM")
if [ "$STATUS" != "200" ]; then
    echo "FAIL: /v1/cluster/kill returned HTTP $STATUS" >&2
    exit 1
fi
"$FLEET_TMP/dvsexp" -exp t2 -quick -seeds 2 -addr "$FADDR" >"$FLEET_TMP/fleet2.out"
cmp -s "$FLEET_TMP/local.out" "$FLEET_TMP/fleet2.out" || {
    echo "FAIL: fleet t2 report differs after killing worker $VICTIM" >&2
    diff "$FLEET_TMP/local.out" "$FLEET_TMP/fleet2.out" >&2 || true
    exit 1
}

# Failover must be observable: drive fresh-seed requests at the fleet
# until the dead worker's failover counter moves (bounded — the ring
# spreads keys, so a handful of seeds always hits the victim's share).
FAILED_OVER=""
i=0
while [ $i -lt 50 ]; do
    if curl -s --max-time 2 "http://$FADDR/metrics.prom" |
        grep '^dvsfleet_failovers_total{' | grep -qv ' 0$'; then
        FAILED_OVER=yes
        break
    fi
    curl -s --max-time 5 -o /dev/null -d "{
      \"task_set\": {\"tasks\": [{\"wcet\": 1, \"period\": 4}, {\"wcet\": 2, \"period\": 12}]},
      \"policy\": \"lpshe\",
      \"workload\": {\"kind\": \"uniform\", \"lo\": 0.5, \"hi\": 1, \"seed\": $i}
    }" "http://$FADDR/v1/simulate" || true
    i=$((i + 1))
done
if [ -z "$FAILED_OVER" ]; then
    echo "FAIL: no failover recorded after killing $VICTIM:" >&2
    curl -s --max-time 2 "http://$FADDR/metrics.prom" | grep '^dvsfleet_' >&2 || true
    exit 1
fi
# The survivors must carry the fleet: with one worker dead, readyz
# still says ready.
STATUS=$(curl -s -o /dev/null -w '%{http_code}' --max-time 2 "http://$FADDR/readyz")
if [ "$STATUS" != "200" ]; then
    echo "FAIL: fleet not ready after single-worker kill (HTTP $STATUS)" >&2
    exit 1
fi

kill -TERM "$FLEET_PID"
wait "$FLEET_PID" || { echo "FAIL: dvsfleet exited non-zero on SIGTERM" >&2; cat "$FLEET_LOG" >&2; exit 1; }
FLEET_PID=""
grep -q "drained, bye" "$FLEET_LOG" || { echo "FAIL: no clean fleet drain message" >&2; cat "$FLEET_LOG" >&2; exit 1; }
echo "    fleet smoke test OK ($FADDR, hammer clean, t2 byte-identical incl. after worker kill, scenario verdict byte-identical, fleet job results equal a worker's, failover observed, clean drain)"

echo "==> trace smoke test (dvsfleet -trace-buffer, one trace across the fleet)"
TRACE_LOG="$FLEET_TMP/trace.log"
"$FLEET_BIN" -addr 127.0.0.1:0 -embedded -workers 3 -trace-buffer 512 -log-format json >"$TRACE_LOG" 2>&1 &
FLEET_PID=$!
TADDR=""
for _ in $(seq 1 50); do
    TADDR=$(sed -n 's/.*dvsfleet: listening on \([0-9.:]*\).*/\1/p' "$TRACE_LOG" | head -n1)
    [ -n "$TADDR" ] && break
    sleep 0.1
done
if [ -z "$TADDR" ]; then
    echo "FAIL: traced dvsfleet did not start:" >&2
    cat "$TRACE_LOG" >&2
    exit 1
fi

# A client-originated traceparent with a known trace ID; the fleet
# must continue it rather than start its own.
TRACE_ID="4bf92f3577b34da6a3ce929d0e0e4736"
TP="00-$TRACE_ID-00f067aa0ba902b7-01"
STATUS=$(curl -s -o "$FLEET_TMP/traced-scen.json" -w '%{http_code}' --max-time 10 \
    -H "traceparent: $TP" --data-binary @"$SCEN_DOC" "http://$TADDR/v1/scenario")
if [ "$STATUS" != "200" ]; then
    echo "FAIL: traced /v1/scenario returned HTTP $STATUS:" >&2
    cat "$FLEET_TMP/traced-scen.json" >&2
    exit 1
fi
# Tracing must be inert: the verdict bytes of the traced run equal the
# tracing-disabled local run byte for byte.
cmp -s "$SCEN_TMP/local.json" "$FLEET_TMP/traced-scen.json" || {
    echo "FAIL: tracing changed scenario verdict bytes" >&2
    diff "$SCEN_TMP/local.json" "$FLEET_TMP/traced-scen.json" >&2 || true
    exit 1
}
# One trace ID across both processes' logs: the coordinator's access
# line and the worker's (tagged component=worker) both carry it.
grep -q "\"endpoint\":\"scenario\".*\"trace\":\"$TRACE_ID\"" "$TRACE_LOG" || {
    echo "FAIL: coordinator log line missing trace id $TRACE_ID" >&2
    grep '"trace"' "$TRACE_LOG" >&2 || cat "$TRACE_LOG" >&2
    exit 1
}
grep -q "\"component\":\"worker\".*\"trace\":\"$TRACE_ID\"" "$TRACE_LOG" || {
    echo "FAIL: no worker log line carries trace id $TRACE_ID" >&2
    grep '"trace"' "$TRACE_LOG" >&2 || cat "$TRACE_LOG" >&2
    exit 1
}
# The fleet trace dump must hold spans from both services under that
# trace: the coordinator's handler/routing spans and the worker's.
curl -s --max-time 2 -o "$FLEET_TMP/trace-dump.json" "http://$TADDR/debug/trace"
for NEEDLE in "$TRACE_ID" '"dvsfleet.scenario"' '"fleet.route"' '"dvsd.scenario"'; do
    grep -q "$NEEDLE" "$FLEET_TMP/trace-dump.json" || {
        echo "FAIL: fleet /debug/trace missing $NEEDLE" >&2
        cat "$FLEET_TMP/trace-dump.json" >&2
        exit 1
    }
done
kill -TERM "$FLEET_PID"
wait "$FLEET_PID" || { echo "FAIL: traced dvsfleet exited non-zero on SIGTERM" >&2; cat "$TRACE_LOG" >&2; exit 1; }
FLEET_PID=""

# Decision provenance export: dvssim -trace must emit a well-formed
# Chrome trace with decision instants and s/f flow chains, and
# dvsscen run -explain must report per-path decision counts.
go build -o "$FLEET_TMP/dvssim" ./cmd/dvssim
"$FLEET_TMP/dvssim" -policy lpshe -taskset cnc -trace "$FLEET_TMP/flight.json" >/dev/null
for NEEDLE in '"traceEvents"' '"cat": "decision"' '"ph": "s"' '"ph": "f"' '"bp": "e"'; do
    grep -q "$NEEDLE" "$FLEET_TMP/flight.json" || {
        echo "FAIL: dvssim -trace output missing $NEEDLE" >&2
        exit 1
    }
done
"$SCEN_BIN" run -explain "$SCEN_DOC" >"$FLEET_TMP/explain.out"
grep -q "explain lpshe.*staircase=" "$FLEET_TMP/explain.out" || {
    echo "FAIL: dvsscen run -explain reported no lpshe decision paths:" >&2
    cat "$FLEET_TMP/explain.out" >&2
    exit 1
}
echo "    trace smoke test OK ($TADDR, one trace across coordinator+worker, verdict bytes inert, flight export well-formed, -explain green)"

echo "==> scenario pass (dvsscen validate + full corpus replay)"
# Every committed document must validate (all errors would be listed)
# and replay green with its assertions enforced — dvsscen exits
# non-zero on any validation error or failing verdict.
"$SCEN_BIN" validate -q scenarios/*.yaml
"$SCEN_BIN" run scenarios/*.yaml >"$SCEN_TMP/corpus.out" || {
    echo "FAIL: scenario corpus replay failed:" >&2
    cat "$SCEN_TMP/corpus.out" >&2
    exit 1
}
N_DOCS=$(ls scenarios/*.yaml | wc -l)
if [ "$N_DOCS" -lt 10 ]; then
    echo "FAIL: scenario corpus has $N_DOCS documents, want >= 10" >&2
    exit 1
fi
# One run path: dvscheck -replay of a reproducer document must print
# exactly the verdict bytes dvsscen run -json prints for it.
REPRO_DOC=scenarios/repro-overload-min.yaml
go run ./cmd/dvscheck -replay "$REPRO_DOC" >"$SCEN_TMP/replay.json"
"$SCEN_BIN" run -json "$REPRO_DOC" >"$SCEN_TMP/run.json"
cmp -s "$SCEN_TMP/replay.json" "$SCEN_TMP/run.json" || {
    echo "FAIL: dvscheck -replay verdict differs from dvsscen run -json" >&2
    diff "$SCEN_TMP/replay.json" "$SCEN_TMP/run.json" >&2 || true
    exit 1
}
echo "    scenario pass OK ($N_DOCS documents validated and replayed, dvscheck -replay byte-identical)"

echo "==> dvscheck audit pass"
# Corpus replay + mutation self-test (the default modes), then a
# small deterministic fuzz campaign under the audit oracle.
go run ./cmd/dvscheck
go run ./cmd/dvscheck -fuzz 25 -seed 1

echo "PASS"
