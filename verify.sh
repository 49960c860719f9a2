#!/bin/sh
# verify.sh — the repo's tier-1 gate: static checks, the full test
# suite under the race detector, an end-to-end smoke test of the
# dvsd daemon (start, run one lpSHE simulation over HTTP, assert zero
# deadline misses, scrape /metrics.prom and check the exposition is
# well-formed, drain cleanly), a chaos smoke (daemon under
# deterministic fault injection, hammered through the self-healing
# client with zero surfaced errors, clean drain), a checkpoint smoke
# (a long job SIGTERMed mid-simulation with -checkpoint-dir set must
# drain cleanly to a durable document, and a restarted daemon must
# resume it to energies byte-identical to an uninterrupted run), a
# fleet smoke
# (3-worker embedded dvsfleet: hammer through the router, dvsexp grid
# byte-identical to the single-process run before AND after killing a
# worker, failover observed in the metrics, clean drain), a fleet
# drain-migration smoke (a job live-migrated off a worker via POST
# /v1/cluster/drain finishes on a ring successor), a trace
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

echo "==> go vet ./..."
go vet ./...
# perfbench is a separate module that root `go build ./...` skips;
# vetting it catches exported-API changes that break the benchmark.
(cd perfbench && go vet .)

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
# property of the analyzer hot path (Analyze, the staircase cycle,
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

echo "==> dvsd smoke test"
DVSD_BIN=$(mktemp -t dvsd.XXXXXX)
SCEN_BIN=$(mktemp -t dvsscen.XXXXXX)
SCEN_TMP=$(mktemp -d -t dvsscen.XXXXXX)
DVSD_LOG=$(mktemp -t dvsd.log.XXXXXX)
DVSD_PID=""
FLEET_PID=""
FLEET_TMP=""
cleanup() {
    [ -n "$DVSD_PID" ] && kill "$DVSD_PID" 2>/dev/null || true
    [ -n "$FLEET_PID" ] && kill "$FLEET_PID" 2>/dev/null || true
    rm -f "$DVSD_BIN" "$SCEN_BIN" "$DVSD_LOG"
    rm -rf "$SCEN_TMP"
    [ -n "$FLEET_TMP" ] && rm -rf "$FLEET_TMP"
}
trap cleanup EXIT

go build -o "$DVSD_BIN" ./cmd/dvsd
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

echo "==> checkpoint smoke test (drain to disk, restart, resume)"
# A long job is interrupted mid-simulation by SIGTERM with a drain
# deadline it cannot meet; with -checkpoint-dir set the daemon must
# still exit cleanly, leaving the job checkpointed on disk. A second
# daemon over the same directory must recover and finish it, and the
# final energies must equal an uninterrupted run on a fresh daemon.
CKPT_DIR="$SCEN_TMP/ckpt"
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
: >"$DVSD_LOG"
"$DVSD_BIN" -addr 127.0.0.1:0 -checkpoint-dir "$CKPT_DIR" -drain-timeout 500ms >"$DVSD_LOG" 2>&1 &
DVSD_PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$DVSD_LOG" | head -n1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "FAIL: checkpoint dvsd did not start:" >&2; cat "$DVSD_LOG" >&2; exit 1; }
STATUS=$(curl -s -o /dev/null -w '%{http_code}' --max-time 2 -d "$CKPT_JOB" "http://$ADDR/v1/jobs")
[ "$STATUS" = "202" ] || { echo "FAIL: checkpoint job not accepted (HTTP $STATUS)" >&2; exit 1; }
sleep 0.3
kill -TERM "$DVSD_PID"
wait "$DVSD_PID" || { echo "FAIL: checkpoint dvsd exited non-zero on SIGTERM" >&2; cat "$DVSD_LOG" >&2; exit 1; }
DVSD_PID=""
grep -q "drained, bye" "$DVSD_LOG" || { echo "FAIL: no clean drain with checkpoint dir" >&2; cat "$DVSD_LOG" >&2; exit 1; }
grep -q "unfinished jobs checkpointed" "$DVSD_LOG" || {
    echo "FAIL: drain did not report checkpointing (job finished too fast?)" >&2
    cat "$DVSD_LOG" >&2
    exit 1
}
ls "$CKPT_DIR"/*.ckpt.json >/dev/null 2>&1 || {
    echo "FAIL: no checkpoint document on disk after drain" >&2
    ls -la "$CKPT_DIR" >&2 || true
    exit 1
}

: >"$DVSD_LOG"
"$DVSD_BIN" -addr 127.0.0.1:0 -checkpoint-dir "$CKPT_DIR" >"$DVSD_LOG" 2>&1 &
DVSD_PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$DVSD_LOG" | head -n1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "FAIL: recovery dvsd did not start:" >&2; cat "$DVSD_LOG" >&2; exit 1; }
grep -q "recovered checkpointed jobs" "$DVSD_LOG" || {
    echo "FAIL: restart did not recover the checkpoint" >&2
    cat "$DVSD_LOG" >&2
    exit 1
}
JOB_ID=""
for _ in $(seq 1 150); do
    JOBS=$(curl -s --max-time 2 "http://$ADDR/v1/jobs")
    if echo "$JOBS" | grep -q '"state": "done"'; then
        JOB_ID=$(echo "$JOBS" | sed -n 's/.*"id": "\(j[0-9]*\)".*/\1/p' | head -n1)
        break
    fi
    sleep 0.2
done
[ -n "$JOB_ID" ] || {
    echo "FAIL: recovered job did not finish:" >&2
    curl -s --max-time 2 "http://$ADDR/v1/jobs" >&2 || true
    cat "$DVSD_LOG" >&2
    exit 1
}
curl -s --max-time 5 "http://$ADDR/v1/jobs/$JOB_ID?results=1" |
    grep -o '"energy": [0-9.e+-]*' >"$SCEN_TMP/resumed.energies"
kill -TERM "$DVSD_PID"
wait "$DVSD_PID" || { echo "FAIL: recovery dvsd exited non-zero on SIGTERM" >&2; exit 1; }
DVSD_PID=""

# Reference run on a fresh daemon (no checkpoint dir, cold cache).
: >"$DVSD_LOG"
"$DVSD_BIN" -addr 127.0.0.1:0 >"$DVSD_LOG" 2>&1 &
DVSD_PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$DVSD_LOG" | head -n1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "FAIL: reference dvsd did not start:" >&2; cat "$DVSD_LOG" >&2; exit 1; }
REF_ID=$(curl -s --max-time 2 -d "$CKPT_JOB" "http://$ADDR/v1/jobs" | sed -n 's/.*"id": "\(j[0-9]*\)".*/\1/p')
[ -n "$REF_ID" ] || { echo "FAIL: reference job not accepted" >&2; exit 1; }
DONE=""
for _ in $(seq 1 150); do
    if curl -s --max-time 2 "http://$ADDR/v1/jobs/$REF_ID" | grep -q '"state": "done"'; then
        DONE=yes
        break
    fi
    sleep 0.2
done
[ -n "$DONE" ] || { echo "FAIL: reference job did not finish" >&2; exit 1; }
curl -s --max-time 5 "http://$ADDR/v1/jobs/$REF_ID?results=1" |
    grep -o '"energy": [0-9.e+-]*' >"$SCEN_TMP/reference.energies"
kill -TERM "$DVSD_PID"
wait "$DVSD_PID" || { echo "FAIL: reference dvsd exited non-zero on SIGTERM" >&2; exit 1; }
DVSD_PID=""
cmp -s "$SCEN_TMP/resumed.energies" "$SCEN_TMP/reference.energies" || {
    echo "FAIL: resumed job energies differ from uninterrupted run" >&2
    diff "$SCEN_TMP/resumed.energies" "$SCEN_TMP/reference.energies" >&2 || true
    exit 1
}
[ -s "$SCEN_TMP/resumed.energies" ] || { echo "FAIL: no energies extracted from resumed job" >&2; exit 1; }
echo "    checkpoint smoke test OK (drain checkpointed to disk, restart resumed, energies byte-identical)"

echo "==> fleet smoke test (dvsfleet -embedded, 3 workers)"
FLEET_TMP=$(mktemp -d -t dvsfleet.XXXXXX)
FLEET_LOG="$FLEET_TMP/fleet.log"
go build -o "$FLEET_TMP/dvsfleet" ./cmd/dvsfleet
go build -o "$FLEET_TMP/dvshammer" ./cmd/dvshammer
go build -o "$FLEET_TMP/dvsexp" ./cmd/dvsexp

"$FLEET_TMP/dvsfleet" -addr 127.0.0.1:0 -embedded -workers 3 >"$FLEET_LOG" 2>&1 &
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
echo "    fleet smoke test OK ($FADDR, hammer clean, t2 byte-identical incl. after worker kill, scenario verdict byte-identical, failover observed, clean drain)"

echo "==> trace smoke test (dvsfleet -trace-buffer, one trace across the fleet)"
TRACE_LOG="$FLEET_TMP/trace.log"
"$FLEET_TMP/dvsfleet" -addr 127.0.0.1:0 -embedded -workers 3 -trace-buffer 512 -log-format json >"$TRACE_LOG" 2>&1 &
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

echo "==> fleet drain-migration smoke test (live checkpoint/restore across workers)"
# A job running on one worker is live-migrated off it by POST
# /v1/cluster/drain: checkpointed mid-simulation, restored on a ring
# successor, finished there — observable in the response, the
# migrations counter, and the successor's job listing.
DRAIN_LOG="$FLEET_TMP/drain.log"
"$FLEET_TMP/dvsfleet" -addr 127.0.0.1:0 -embedded -workers 3 >"$DRAIN_LOG" 2>&1 &
FLEET_PID=$!
DADDR=""
for _ in $(seq 1 50); do
    DADDR=$(sed -n 's/.*dvsfleet: listening on \([0-9.:]*\).*/\1/p' "$DRAIN_LOG" | head -n1)
    [ -n "$DADDR" ] && break
    sleep 0.1
done
[ -n "$DADDR" ] || { echo "FAIL: drain-smoke dvsfleet did not start:" >&2; cat "$DRAIN_LOG" >&2; exit 1; }
WORKERS=$(curl -s --max-time 2 "http://$DADDR/v1/cluster" | sed -n 's/.*"addr": "\([0-9.:]*\)".*/\1/p')
W1=$(echo "$WORKERS" | head -n1)
[ -n "$W1" ] || { echo "FAIL: drain smoke listed no workers" >&2; exit 1; }
STATUS=$(curl -s -o /dev/null -w '%{http_code}' --max-time 2 -d "$CKPT_JOB" "http://$W1/v1/jobs")
[ "$STATUS" = "202" ] || { echo "FAIL: worker $W1 rejected the job (HTTP $STATUS)" >&2; exit 1; }
sleep 0.3
DRAIN_RESP=$(curl -s --max-time 30 -X POST "http://$DADDR/v1/cluster/drain?worker=$W1")
echo "$DRAIN_RESP" | grep -q '"migrated": *[1-9]' || {
    echo "FAIL: drain migrated no jobs: $DRAIN_RESP" >&2
    cat "$DRAIN_LOG" >&2
    exit 1
}
curl -s --max-time 2 "http://$DADDR/metrics.prom" |
    grep -q '^dvsfleet_migrations_total{reason="drain"} [1-9]' || {
    echo "FAIL: migrations counter did not move:" >&2
    curl -s --max-time 2 "http://$DADDR/metrics.prom" | grep '^dvsfleet_' >&2 || true
    exit 1
}
MIGRATED=""
for _ in $(seq 1 150); do
    for W in $WORKERS; do
        [ "$W" = "$W1" ] && continue
        if curl -s --max-time 2 "http://$W/v1/jobs" | grep -q '"state": "done"'; then
            MIGRATED=$W
            break
        fi
    done
    [ -n "$MIGRATED" ] && break
    sleep 0.2
done
[ -n "$MIGRATED" ] || {
    echo "FAIL: migrated job never finished on a successor worker" >&2
    for W in $WORKERS; do curl -s --max-time 2 "http://$W/v1/jobs" >&2 || true; done
    exit 1
}
# The source keeps the paused husk, checkpointed, not re-running.
curl -s --max-time 2 "http://$W1/v1/jobs" | grep -q '"state": "checkpointed"' || {
    echo "FAIL: source worker job not in checkpointed state:" >&2
    curl -s --max-time 2 "http://$W1/v1/jobs" >&2 || true
    exit 1
}
kill -TERM "$FLEET_PID"
wait "$FLEET_PID" || { echo "FAIL: drain-smoke dvsfleet exited non-zero on SIGTERM" >&2; cat "$DRAIN_LOG" >&2; exit 1; }
FLEET_PID=""
echo "    fleet drain-migration smoke OK ($DADDR, job moved $W1 -> $MIGRATED, counter moved, source checkpointed)"

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
