#!/usr/bin/env sh
# Tier-1 verify: build, staged test rings, bench smoke, sanitizers.
#
# Usage: scripts/check.sh [build-dir] [--sanitize|--no-sanitize]
#
#   (default)      normal build + full test stages, then a second
#                  ASan+UBSan build-and-test pass under <build-dir>-asan
#   --sanitize     configure THIS build with -DSANITIZE=ON and skip the
#                  trailing sanitizer pass (what CI's asan job runs)
#   --no-sanitize  normal build only, no trailing sanitizer pass
#
# Outside --sanitize it also builds the benchmark harness (perfbench/)
# without running it.  It prints the src/ line count, then runs ctest
# in labeled stages (see docs/TESTING.md) so a failure names the ring
# that broke: unit -> property -> differential -> target -> vax -> obs
# -> mem -> server -> lang -> golden -> bench.
set -eu

cd "$(dirname "$0")/.."
BUILD=build
MODE=default
for arg in "$@"; do
    case "$arg" in
    --sanitize) MODE=sanitize ;;
    --no-sanitize) MODE=nosanitize ;;
    *) BUILD="$arg" ;;
    esac
done

CMAKE_FLAGS=""
[ "$MODE" = sanitize ] && CMAKE_FLAGS="-DSANITIZE=ON"

# Build job count: one per CPU, but at most one per 2 GiB of
# MemAvailable and at least 1.  An unbounded -j can get a compiler
# OOM-killed, which the ASan+UBSan build makes most likely.
JOBS=$(nproc)
MEM_KIB=$(awk '/^MemAvailable:/ { print $2 }' /proc/meminfo 2>/dev/null)
if [ -n "$MEM_KIB" ]; then
    MEM_JOBS=$((MEM_KIB / (2 * 1024 * 1024)))
    [ "$MEM_JOBS" -lt "$JOBS" ] && JOBS=$MEM_JOBS
fi
[ "$JOBS" -lt 1 ] && JOBS=1
echo "check.sh: building with $JOBS parallel jobs"

# shellcheck disable=SC2086  # CMAKE_FLAGS is intentionally word-split
cmake -B "$BUILD" -S . $CMAKE_FLAGS
cmake --build "$BUILD" -j "$JOBS"

# The benchmark (perfbench/, BENCHMARK.json) builds its harness against
# src/ with its own CMake project.  Build it, without running it, so a
# src/ API change that breaks the harness fails here.
if [ "$MODE" != sanitize ]; then
    echo
    echo "== perfbench build (not run) =="
    cmake -B "$BUILD/perfbench" -S perfbench
    cmake --build "$BUILD/perfbench" -j "$JOBS"
fi

# Net source size (ROADMAP "Quality of design"): the total line count
# of src/**/*.{cc,hh}, which each change reports as parent -> change.
# Under GitHub Actions it is also written to the job summary.
echo
echo "== src line count =="
SRC_LINES=$(find src -type f \( -name '*.cc' -o -name '*.hh' \) \
    -exec cat {} + | wc -l)
echo "src lines (src/**/*.{cc,hh}): $SRC_LINES"
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    echo "src lines (src/**/*.{cc,hh}): $SRC_LINES" >> "$GITHUB_STEP_SUMMARY"
fi

run_stages() {
    dir="$1"
    for label in unit property differential target vax obs mem server lang golden bench; do
        echo
        echo "== ctest stage: $label =="
        (cd "$dir" && ctest -L "$label" --output-on-failure -j)
    done
    # Safety net: anything a future test forgets to label still runs.
    echo
    echo "== ctest stage: full sweep =="
    (cd "$dir" && ctest --output-on-failure -j)
}

run_stages "$BUILD"

# Mass differential (docs/LANG.md): 200 seeded RL programs, both
# backends x both tiers against the reference interpreter, fanned out
# on the engine.  The wall-clock budget keeps a pathological seed from
# hanging CI; riscdiff exits non-zero on any divergence and drops a
# minimized repro into bench/out/ (uploaded as a CI artifact).  The
# step also fails unless all 200 seeds ran and the reference
# observations fold to the pinned digest: a change to the generated
# programs or to what they compute fails here even when every backend
# still agrees with the interpreter.
RISCDIFF_DIGEST=0x30ea9d1
run_riscdiff() {
    dir="$1"
    echo
    echo "== lang differential: riscdiff --seeds 200 ($dir) =="
    if ! out=$(cd "$dir" && ./examples/riscdiff --seeds 200 \
        --time-budget-ms 300000 --repro-dir bench/out); then
        echo "$out"
        exit 1
    fi
    echo "$out"
    summary=$(echo "$out" | grep "^riscdiff: ")
    case "$summary" in
    "riscdiff: 200/200 seeds,"*", digest $RISCDIFF_DIGEST") ;;
    *)
        echo "riscdiff: expected 200/200 seeds and digest" \
             "$RISCDIFF_DIGEST" >&2
        exit 1
        ;;
    esac
}

run_riscdiff "$BUILD"

echo
echo "== bench smoke: riscbench experiment registry =="
(cd "$BUILD" && ./bench/riscbench --list > /dev/null)
for exp in table_window_configs table_execution_time fig_icache_sweep \
           fig_mem_hierarchy; do
    echo "-- riscbench $exp"
    (cd "$BUILD" && ./bench/riscbench "$exp" > /dev/null)
    test -s "$BUILD/bench/out/$exp.json" || {
        echo "missing artifact: $BUILD/bench/out/$exp.json" >&2
        exit 1
    }
done
echo "-- riscbench table_code_size_generated"
(cd "$BUILD" && ./bench/riscbench table_code_size_generated > /dev/null)
test -s "$BUILD/bench/out/BENCH_lang.json" || {
    echo "missing artifact: $BUILD/bench/out/BENCH_lang.json" >&2
    exit 1
}
# Fork fan-out gate (docs/MEMORY.md): the experiment itself fails if
# the 10k-way copy-on-write fleet exceeds its fixed RSS budget or the
# deep-copy baseline is less than 10x more expensive per fork.  Its
# output is timing-dependent, so it is NOT golden-covered and its
# artifact is never byte-compared.
echo "-- riscbench fig_fork_fanout"
(cd "$BUILD" && ./bench/riscbench fig_fork_fanout)
test -s "$BUILD/bench/out/BENCH_fork.json" || {
    echo "missing artifact: $BUILD/bench/out/BENCH_fork.json" >&2
    exit 1
}

# Artifact-schema guard: bench artifacts are deterministic (no
# metrics, no timestamps), so any byte drift from the checked-in
# example means the JSON schema or the simulated results changed and
# the example must be reviewed and regenerated (docs/SIM.md).
echo
echo "== artifact schema: fig_mem_hierarchy vs checked-in example =="
cmp "$BUILD/bench/out/fig_mem_hierarchy.json" \
    examples/artifacts/fig_mem_hierarchy.json || {
    echo "artifact schema drifted from examples/artifacts/" \
         "fig_mem_hierarchy.json; if intended, copy the new" \
         "artifact over the example and commit it" >&2
    exit 1
}

echo
echo "== batch smoke: riscbatch artifact + timeline =="
(cd "$BUILD" && ./examples/riscbatch --workers 2 \
    --out bench/out/riscbatch_smoke.json \
    --trace-out=bench/out/riscbatch_timeline.json \
    ../examples/programs/sweep.jobs > /dev/null)
for f in riscbatch_smoke.json riscbatch_timeline.json; do
    test -s "$BUILD/bench/out/$f" || {
        echo "missing artifact: $BUILD/bench/out/$f" >&2
        exit 1
    }
done

echo
echo "== server smoke: riscserved + riscload (docs/SERVER.md) =="
# Boot the daemon on a Unix socket with aggressive TTL eviction and
# the full telemetry surface on (event log, slow-command threshold,
# shutdown metrics dump), park 1024 sessions in it (4 connections x
# 256), verify the load report — riscload itself scrapes `telemetry`,
# gates the server-vs-client p99 cross-check, and measures registry
# overhead — check that idle sessions really spooled to disk, then
# check SIGTERM drains to exit 0 and wrote the exposition dump.
# Telemetry artifacts land in $BUILD/bench/out/ (uploaded by CI).
# Paths stay relative to the repo root (Unix socket paths are capped
# at ~107 bytes, so no absolute $PWD prefixes).
SRV_SOCK="$BUILD/rs_check.sock"
SRV_SPOOL="$BUILD/rs_check.spool"
SRV_LOG="$BUILD/rs_check.log"
SRV_EVENTS="$BUILD/bench/out/riscserved_events.jsonl"
SRV_METRICS="$BUILD/bench/out/riscserved_metrics.prom"
SRV_SCRAPE="$BUILD/bench/out/riscserved_scrape.prom"
rm -rf "$SRV_SPOOL" "$SRV_SOCK" "$SRV_LOG" \
    "$SRV_EVENTS" "$SRV_METRICS" "$SRV_SCRAPE"
"$BUILD/examples/riscserved" --unix "$SRV_SOCK" \
    --ttl-ms 300 --spool "$SRV_SPOOL" \
    --event-log "$SRV_EVENTS" --slow-ms 250 \
    --metrics-dump "$SRV_METRICS" > "$SRV_LOG" 2>&1 &
SRV_PID=$!
# wait_ready LOG: wait up to 10 s for a daemon to log that it is ready.
wait_ready() {
    i=0
    until grep -q "riscserved: ready" "$1" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && {
            echo "riscserved did not come up" >&2
            cat "$1" >&2
            exit 1
        }
        sleep 0.1
    done
}
wait_ready "$SRV_LOG"
"$BUILD/bench/riscload" --unix "$SRV_SOCK" \
    --connections 4 --sessions 256 --ops 120 --keep \
    --p99-limit-ms 2000 --server-metrics-out "$SRV_SCRAPE" \
    --out "$BUILD/bench/out/BENCH_server.json"
test -s "$BUILD/bench/out/BENCH_server.json" || {
    echo "missing artifact: $BUILD/bench/out/BENCH_server.json" >&2
    exit 1
}
# The scraped exposition must be non-empty and well-formed.
test -s "$SRV_SCRAPE" || {
    echo "telemetry scrape produced no exposition in $SRV_SCRAPE" >&2
    exit 1
}
grep -q "^# TYPE riscserved_server_requests_total counter" \
    "$SRV_SCRAPE" || {
    echo "exposition lacks the requests counter TYPE line" >&2
    exit 1
}
SCRAPED_REQS=$(awk '$1 == "riscserved_server_requests_total" \
    { print $2 }' "$SRV_SCRAPE")
# The 1024 kept sessions go idle; the 300 ms TTL must spool them.
sleep 1
SNAPS=$(ls "$SRV_SPOOL" 2>/dev/null | wc -l)
[ "$SNAPS" -gt 0 ] || {
    echo "TTL eviction produced no spool files in $SRV_SPOOL" >&2
    exit 1
}
echo "-- riscload ok, $SNAPS sessions evicted to spool"
kill -TERM "$SRV_PID"
wait "$SRV_PID" || {
    echo "riscserved exited non-zero on SIGTERM" >&2
    cat "$SRV_LOG" >&2
    exit 1
}
# Shutdown wrote the final dump; the requests counter must be
# monotone between the mid-run scrape and the final exposition.
test -s "$SRV_METRICS" || {
    echo "riscserved wrote no metrics dump to $SRV_METRICS" >&2
    exit 1
}
FINAL_REQS=$(awk '$1 == "riscserved_server_requests_total" \
    { print $2 }' "$SRV_METRICS")
[ -n "$SCRAPED_REQS" ] && [ -n "$FINAL_REQS" ] || {
    echo "requests counter missing from exposition" >&2
    exit 1
}
awk "BEGIN { exit !($FINAL_REQS >= $SCRAPED_REQS) }" || {
    echo "requests counter went backwards: scrape=$SCRAPED_REQS" \
         "final=$FINAL_REQS" >&2
    exit 1
}
# The event log must be line-parseable JSONL with lifecycle events.
test -s "$SRV_EVENTS" || {
    echo "riscserved wrote no event log to $SRV_EVENTS" >&2
    exit 1
}
grep -q '"event":"server.start"' "$SRV_EVENTS" &&
    grep -q '"event":"server.stop"' "$SRV_EVENTS" || {
    echo "event log lacks server.start/server.stop" >&2
    exit 1
}
echo "-- telemetry ok: requests $SCRAPED_REQS -> $FINAL_REQS," \
     "$(wc -l < "$SRV_EVENTS") event-log lines"
rm -rf "$SRV_SPOOL" "$SRV_SOCK" "$SRV_LOG"

echo
echo "== server smoke, refused sessions: riscload must fail closed =="
# A daemon capped at 4 sessions refuses most of the 16 riscload asks
# for, so the load runs no ops.  riscload must exit non-zero, and its
# report must not claim the p99 cross-check held: a gate with too few
# samples is undecided, never a pass.
NEG_SOCK="$BUILD/rs_refused.sock"
NEG_SPOOL="$BUILD/rs_refused.spool"
NEG_LOG="$BUILD/rs_refused.log"
NEG_OUT="$BUILD/bench/out/BENCH_server_refused.json"
rm -rf "$NEG_SPOOL" "$NEG_SOCK" "$NEG_LOG" "$NEG_OUT"
"$BUILD/examples/riscserved" --unix "$NEG_SOCK" --spool "$NEG_SPOOL" \
    --max-sessions 4 > "$NEG_LOG" 2>&1 &
NEG_PID=$!
wait_ready "$NEG_LOG"
NEG_STATUS=0
"$BUILD/bench/riscload" --unix "$NEG_SOCK" --connections 2 \
    --sessions 8 --ops 50 --out "$NEG_OUT" || NEG_STATUS=$?
kill -TERM "$NEG_PID"
wait "$NEG_PID" || {
    echo "riscserved exited non-zero on SIGTERM" >&2
    cat "$NEG_LOG" >&2
    exit 1
}
[ "$NEG_STATUS" -ne 0 ] || {
    echo "riscload exited 0 although the daemon refused its sessions" >&2
    exit 1
}
test -s "$NEG_OUT" || {
    echo "missing artifact: $NEG_OUT" >&2
    exit 1
}
if grep -Eq '"p99Within2x": *true' "$NEG_OUT"; then
    echo "$NEG_OUT claims p99Within2x: true for a load with no ops" >&2
    exit 1
fi
echo "-- riscload failed closed (exit $NEG_STATUS, no p99Within2x: true)"
rm -rf "$NEG_SPOOL" "$NEG_SOCK" "$NEG_LOG"

if [ "$MODE" = default ]; then
    echo
    echo "== sanitizer pass: ASan + UBSan =="
    ASAN_BUILD="${BUILD}-asan"
    cmake -B "$ASAN_BUILD" -S . -DSANITIZE=ON
    cmake --build "$ASAN_BUILD" -j "$JOBS"
    run_stages "$ASAN_BUILD"
    run_riscdiff "$ASAN_BUILD"
fi

echo "check.sh: all green"
