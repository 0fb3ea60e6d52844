#!/bin/sh
# CI entry point: builds and tests the tree in six steps.
#
#   1. Release          — the full suite (tier-1 gate).
#   2. Bench smokes     — bench/cache_effectiveness on a tiny dataset (fails
#                         on a zero answer-cache hit rate or any stale
#                         answer served after an insert — epoch invalidation
#                         gate; the stale gate warms each token until it is
#                         admitted and hits, since a cache stores a key on
#                         its second sight), bench/dbgen_scaling in smoke
#                         mode (fails if any run of the one Fig. 5 planner
#                         with its chunk tasks spread over a pool — one
#                         partition, or 2/4/8 hash partitions under a
#                         healthy fault plan — emits a different database
#                         or report than the inline run — determinism
#                         gate, DESIGN.md §11 + §15; smoke mode times each
#                         cell once, full mode takes medians of 7
#                         interleaved repetitions), and
#                         bench/fault_tolerance in smoke mode
#                         (fails when disarmed fault machinery costs > 5%
#                         more CPU per query — the median ratio of 80
#                         interleaved one-worker trial pairs — or any query
#                         fails under injected faults — robustness gates,
#                         DESIGN.md §12),
#                         bench/kernels in smoke mode (fails when an index
#                         probe disagrees with a sequential scan, when the
#                         SIMD ScanEquals emits different tids than the scalar
#                         reference, or when a batched index probe differs
#                         from sequential lookups or a column scan, on a
#                         dense column built to take the direct key table
#                         and a strided one built to take the slot table —
#                         data-layout equivalence gates, DESIGN.md §13 +
#                         §16). The determinism gate
#                         compares planner runs; the planner itself is
#                         checked against the sequential walk oracle by the
#                         test suite in step 1.
#   3. Server smoke     — tools/precis_serve started on an ephemeral port
#                         with --shards 2 (PrecisEngine over 2 hash
#                         partitions of the one copy of the dataset) and
#                         driven over real sockets by bench/load_gen in
#                         smoke mode. load_gen
#                         fails on any transport error, unexpected 4xx/5xx,
#                         or a served body that is not byte-identical to the
#                         in-process one-partition answer (DESIGN.md §14 +
#                         §15 byte-identity end-to-end — with --cache on by
#                         default this also proves the memoized body cache
#                         and zero-copy writev path serve the exact same
#                         bytes, §16). load_gen also runs a hit/miss split
#                         pass (reported in smoke; the 1.5x p99 gate arms
#                         in full runs). The leg then SIGTERMs the server
#                         and requires a graceful zero exit. Last, a memory
#                         gate starts precis_serve at 34k films with
#                         --shards 1 and with --shards 4, reads VmHWM from
#                         /proc/<pid>/status at each listening line, and
#                         fails when the 4-partition peak exceeds the
#                         1-partition peak by more than 5% (partitions are
#                         fault domains over the one copy, DESIGN.md §15).
#   4. Chaos smoke      — tools/precis_serve restarted with --shards 4,
#                         --kill-shard 1 (a fault-scheduled permanently dead
#                         shard), --replicas on (hedging: a stalled
#                         partition delays an edge by at most its hedging
#                         delay, a computed wait) and a
#                         seeded socket-chaos spec, then driven by
#                         bench/load_gen --chaos. The chaos pass gates on
#                         what outage handling promises (DESIGN.md §17):
#                         availability (>= 99% answered 200), honesty (those
#                         200s carry X-Precis-Degraded: true), bounded
#                         latency (p99 <= 3x the healthy baseline scraped
#                         from step 3's BENCH_server.json) and determinism
#                         (re-POSTing the probe is byte-identical). The leg
#                         runs the whole drill twice against freshly started
#                         servers and requires the probe fingerprints of
#                         both runs to match — same seed, same degraded
#                         bytes, across processes. The fingerprint hashes
#                         served bytes, so it moved once when an
#                         occurrence began rendering its matched-tuple
#                         count instead of its tids (it was
#                         f204e03c08f2cc39 before); no constant pins it,
#                         only the two runs' agreement.
#   5. ThreadSanitizer  — the concurrency-sensitive tests (ExecutionContext,
#                         PrecisService, engine concurrency, the sharded LRU,
#                         the answer cache, the work-stealing TaskPool, the
#                         parallel database generator, the partitioned
#                         engine suites of shard_test — all matched by
#                         'Shard' — the query Arena, the SymbolTable
#                         interner and the HTTP server) rebuilt and run
#                         under TSan, so data races on the shared query
#                         path fail the build rather than ship. The shared
#                         pool is pinned to >= 4 threads so intra-query
#                         parallelism really interleaves under the
#                         sanitizer. The partition fault-domain suite
#                         (circuit breakers, the planner's skip filter,
#                         computed stall waits and hedges, degraded
#                         answers) runs here too: partitioned queries
#                         always run their chunk tasks on the pool.
#   6. ASan + UBSan     — the chaos sanitizer gate: the fault-injection
#                         suite, the fuzz-lite chaos sweep (including its
#                         partitioned arm and the body-cache insert/query
#                         interleaving sweep), the answer/body cache suite,
#                         the partitioned engine suites of shard_test
#                         (determinism, per-partition caches, the service,
#                         circuit breakers, the skip filter's arena copies,
#                         computed stall waits, degraded answers — all
#                         matched by 'Shard'), the ExecutionContext suite
#                         (a deadline span past the clock's range, NaN or
#                         infinity clears the deadline instead of
#                         overflowing the tick conversion), the HTTP server
#                         suite (slowloris timeouts, drain, socket chaos,
#                         deadline_ms past the clock's range),
#                         the planner determinism suite, the TaskPool
#                         suite, the FlatKeySet set in both layouts (hash
#                         table and bitmap), the sharded LRU (each shard's
#                         admission doorkeeper is a FlatKeySet), the
#                         Relation/Database storage
#                         suites (primary-key set and FK checks over it,
#                         in-place index runs, the byte report), the
#                         flat-run ColumnIndex against a scan in both key
#                         tables (direct and hashed), the
#                         serialization suite (LoadDatabase builds each
#                         index in bulk after the rows are in), the
#                         SymbolTable suite (raw byte copies into slabs,
#                         offset arithmetic, a slab filled to its last
#                         byte, strings longer than a slab) and the JSON
#                         renderer's own suite (escaping, scalars, whole
#                         databases, answers whose occurrences render
#                         matched-tuple counts), the token index and
#                         tokenizer suites (32-bit posting runs, phrase
#                         intersection, the occurrence charge) and the
#                         planner's paper-example and strategy suites
#                         (its accepted tid lists) rebuilt under
#                         address+undefined sanitizers.
#                         Every answer's rows pass through the planner's
#                         arena chunk buffers, inline or pooled.
#                         Injected faults exercise every degradation path
#                         (drops, failed lookups, retries, placeholders,
#                         skipped shards, short writes); this leg proves
#                         those paths are memory- and UB-clean, not merely
#                         green.
#
# PRECIS_SANITIZE=address ./ci.sh swaps the fifth configuration to ASan.
# All configurations use separate build trees and leave ./build alone.

set -eu

# Legs 3 and 4 start precis_serve in the background and stop it when the
# leg passes. A failing step exits through `set -e` before that, so every
# exit path stops whichever server a leg recorded and left running.
SERVE_PID=""
HWM_PID=""
CHAOS_PID=""
stop_servers() {
  for pid in $SERVE_PID $HWM_PID $CHAOS_PID; do
    kill -TERM "$pid" 2>/dev/null || true
  done
}
trap stop_servers EXIT
trap 'exit 130' INT TERM

SANITIZER="${PRECIS_SANITIZE:-thread}"
JOBS="$(nproc 2>/dev/null || echo 4)"
ROOT="$(cd "$(dirname "$0")" && pwd)"

echo "=== [1/6] Release build + full test suite ==="
cmake -B "$ROOT/build-release" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$ROOT/build-release" -j "$JOBS"
ctest --test-dir "$ROOT/build-release" --output-on-failure -j "$JOBS"

echo "=== [2/6] Bench smokes (cache + parallel determinism + faults) ==="
PRECIS_BENCH_MOVIES=300 PRECIS_BENCH_SMOKE=1 \
  PRECIS_BENCH_OUT="$ROOT/build-release/BENCH_cache.json" \
  "$ROOT/build-release/bench/cache_effectiveness"
# Inline vs pooled and partitioned generation across cardinalities and
# widths {2,4,8}: every run must emit the inline run's database and report
# (DESIGN.md §11 + §15); a mismatch exits non-zero and fails CI.
PRECIS_BENCH_MOVIES=300 PRECIS_BENCH_SMOKE=1 \
  PRECIS_BENCH_OUT="$ROOT/build-release/BENCH_dbgen_scaling.json" \
  "$ROOT/build-release/bench/dbgen_scaling"
# Zero-fault overhead (< 5%) + graceful degradation under injected faults.
PRECIS_BENCH_MOVIES=300 PRECIS_BENCH_SMOKE=1 \
  PRECIS_BENCH_OUT="$ROOT/build-release/BENCH_fault_tolerance.json" \
  "$ROOT/build-release/bench/fault_tolerance"
# Columnar kernels (index probe, token lookup, SIMD scan-equals, batched
# probe, phrase intersection) must agree with their
# scalar/sequential references cell-for-cell (DESIGN.md §13 + §16).
PRECIS_BENCH_MOVIES=300 PRECIS_BENCH_SMOKE=1 \
  PRECIS_BENCH_OUT="$ROOT/build-release/BENCH_kernels.json" \
  "$ROOT/build-release/bench/kernels_bench"

echo "=== [3/6] Server smoke (precis_serve + load_gen over real sockets) ==="
SERVE_LOG="$ROOT/build-release/precis_serve_smoke.log"
rm -f "$SERVE_LOG"  # a stale listening line must not be read as this one
# --shards 2 serves a 2-partition engine; load_gen's identity probe compares
# served bytes against an in-process one-partition engine, so this leg also
# checks the partitioning byte-identity guarantee end-to-end.
"$ROOT/build-release/tools/precis_serve" \
  --port 0 --movies 300 --workers 2 --io-threads 2 --queue-depth 32 \
  --shards 2 \
  >"$SERVE_LOG" 2>&1 &
SERVE_PID=$!
# The binary prints "precis_serve listening on HOST:PORT" once the socket
# is bound; scrape the ephemeral port from the log.
SERVE_PORT=""
i=0
while [ $i -lt 100 ]; do
  SERVE_PORT="$(sed -n 's/^precis_serve listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' "$SERVE_LOG" 2>/dev/null || true)"
  [ -n "$SERVE_PORT" ] && break
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "precis_serve exited before binding:" >&2
    cat "$SERVE_LOG" >&2
    exit 1
  fi
  sleep 0.1
  i=$((i + 1))
done
if [ -z "$SERVE_PORT" ]; then
  echo "precis_serve never reported a listening port:" >&2
  cat "$SERVE_LOG" >&2
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
# Byte-identity + clean-outcome gates live inside load_gen (exit nonzero on
# any transport error, unexpected status, or body mismatch). The dataset
# size must match the server's so the identity probe compares like answers.
PRECIS_BENCH_TARGET="127.0.0.1:$SERVE_PORT" \
  PRECIS_BENCH_MOVIES=300 PRECIS_BENCH_SMOKE=1 \
  PRECIS_BENCH_OUT="$ROOT/build-release/BENCH_server.json" \
  "$ROOT/build-release/bench/load_gen" --shards 2
test -s "$ROOT/build-release/BENCH_server.json"
# Graceful drain: SIGTERM must produce a zero exit.
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
  echo "precis_serve did not exit cleanly on SIGTERM:" >&2
  cat "$SERVE_LOG" >&2
  exit 1
fi
SERVE_PID=""
# Memory gate: a partition is a set of the source's tids, not a copy, so
# --shards 4 must peak within 5% of --shards 1. Prints the server's VmHWM
# in kB, read from /proc at its listening line, then stops it.
hwm_at_listening_line() {
  HWM_LOG="$ROOT/build-release/precis_serve_hwm_$1.log"
  rm -f "$HWM_LOG"  # a stale listening line must not be read as this one
  "$ROOT/build-release/tools/precis_serve" --port 0 --movies 34000 \
    --shards "$1" >"$HWM_LOG" 2>&1 &
  HWM_PID=$!
  # This runs in a command substitution, whose subshell does not inherit
  # the script's traps.
  trap stop_servers EXIT
  i=0
  while ! grep -q '^precis_serve listening on ' "$HWM_LOG" 2>/dev/null; do
    if ! kill -0 "$HWM_PID" 2>/dev/null || [ $i -ge 600 ]; then
      echo "precis_serve --shards $1 never reported a listening port:" >&2
      cat "$HWM_LOG" >&2
      kill "$HWM_PID" 2>/dev/null || true
      return 1
    fi
    sleep 0.1
    i=$((i + 1))
  done
  sed -n 's/^VmHWM:[[:space:]]*\([0-9][0-9]*\) kB$/\1/p' "/proc/$HWM_PID/status"
  kill -TERM "$HWM_PID"
  if ! wait "$HWM_PID"; then
    echo "precis_serve --shards $1 did not exit cleanly on SIGTERM:" >&2
    cat "$HWM_LOG" >&2
    return 1
  fi
  HWM_PID=""
}
HWM_ONE="$(hwm_at_listening_line 1)"
HWM_FOUR="$(hwm_at_listening_line 4)"
echo "VmHWM at 34k films: --shards 1 ${HWM_ONE} kB, --shards 4 ${HWM_FOUR} kB"
if [ -z "$HWM_ONE" ] || [ -z "$HWM_FOUR" ] ||
   [ $((HWM_FOUR * 100)) -gt $((HWM_ONE * 105)) ]; then
  echo "MEMORY GATE FAILED: --shards 4 must peak within 5% of --shards 1" >&2
  exit 1
fi

echo "=== [4/6] Chaos smoke (dead shard + socket chaos, twice, fingerprints must match) ==="
# The latency gate compares the chaos p99 against the healthy run: scrape
# the worst per-point p99 out of step 3's BENCH_server.json. Smoke points
# hold only a handful of samples (p99 == max sample), so floor the baseline
# at 2 ms to keep one scheduler hiccup from failing a 3x gate that full
# runs apply against real percentiles.
BASELINE_P99="$(grep -o '"p99_ms": [0-9.][0-9.]*' "$ROOT/build-release/BENCH_server.json" \
  | sed 's/.*: //' | sort -g | tail -1)"
BASELINE_P99="$(awk "BEGIN { b = $BASELINE_P99 + 0; print (b < 2.0) ? 2.0 : b }")"
echo "healthy baseline p99: ${BASELINE_P99} ms"
# Two full drills against freshly started servers. Each run kills shard 1
# of 4 permanently (breaker opens, lookups skip its tids), hedges stalled
# partitions, and injects seeded short writes at the socket layer; load_gen
# gates availability/honesty/latency/determinism. The probe fingerprint
# must match across the two processes: same seed, same degraded bytes.
CHAOS_FP=""
run=1
while [ $run -le 2 ]; do
  CHAOS_LOG="$ROOT/build-release/precis_serve_chaos_$run.log"
  rm -f "$CHAOS_LOG"  # a stale listening line must not be read as this one
  "$ROOT/build-release/tools/precis_serve" \
    --port 0 --movies 300 --workers 2 --io-threads 2 --queue-depth 32 \
    --shards 4 --replicas on --kill-shard 1 --fault-seed 42 \
    --chaos 'seed=7,short=0.2' \
    >"$CHAOS_LOG" 2>&1 &
  CHAOS_PID=$!
  CHAOS_PORT=""
  i=0
  while [ $i -lt 100 ]; do
    CHAOS_PORT="$(sed -n 's/^precis_serve listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' "$CHAOS_LOG" 2>/dev/null || true)"
    [ -n "$CHAOS_PORT" ] && break
    if ! kill -0 "$CHAOS_PID" 2>/dev/null; then
      echo "precis_serve (chaos run $run) exited before binding:" >&2
      cat "$CHAOS_LOG" >&2
      exit 1
    fi
    sleep 0.1
    i=$((i + 1))
  done
  if [ -z "$CHAOS_PORT" ]; then
    echo "precis_serve (chaos run $run) never reported a listening port:" >&2
    cat "$CHAOS_LOG" >&2
    kill "$CHAOS_PID" 2>/dev/null || true
    exit 1
  fi
  PRECIS_BENCH_TARGET="127.0.0.1:$CHAOS_PORT" \
    PRECIS_BENCH_MOVIES=300 PRECIS_BENCH_SMOKE=1 \
    PRECIS_BENCH_BASELINE_P99_MS="$BASELINE_P99" \
    PRECIS_BENCH_OUT="$ROOT/build-release/BENCH_chaos.json" \
    "$ROOT/build-release/bench/load_gen" --shards 4 --chaos
  test -s "$ROOT/build-release/BENCH_chaos.json"
  kill -TERM "$CHAOS_PID"
  if ! wait "$CHAOS_PID"; then
    echo "precis_serve (chaos run $run) did not exit cleanly on SIGTERM:" >&2
    cat "$CHAOS_LOG" >&2
    exit 1
  fi
  CHAOS_PID=""
  FP="$(sed -n 's/.*"probe_fingerprint": "\([0-9a-f][0-9a-f]*\)".*/\1/p' "$ROOT/build-release/BENCH_chaos.json")"
  if [ -z "$FP" ]; then
    echo "BENCH_chaos.json has no probe_fingerprint" >&2
    exit 1
  fi
  if [ $run -eq 1 ]; then
    CHAOS_FP="$FP"
  elif [ "$FP" != "$CHAOS_FP" ]; then
    echo "CROSS-RUN DETERMINISM GATE FAILED: run 1 fingerprint $CHAOS_FP," >&2
    echo "run 2 fingerprint $FP — degraded bytes depend on more than the seed" >&2
    exit 1
  fi
  run=$((run + 1))
done
echo "chaos fingerprint stable across runs: $CHAOS_FP"

echo "=== [5/6] ${SANITIZER} sanitizer build + concurrency suite ==="
cmake -B "$ROOT/build-$SANITIZER" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPRECIS_SANITIZE="$SANITIZER"
cmake --build "$ROOT/build-$SANITIZER" -j "$JOBS" \
  --target concurrency_test service_test execution_context_test \
           lru_cache_test answer_cache_test task_pool_test \
           parallel_dbgen_test arena_test symbol_table_test server_test \
           shard_test
PRECIS_TASK_POOL_THREADS=4 \
  ctest --test-dir "$ROOT/build-$SANITIZER" --output-on-failure -j "$JOBS" \
  -R 'Concurrency|Service|ExecutionContext|LruCache|AnswerCache|TaskPool|ParallelDbGen|Arena|SymbolTable|JsonLite|HttpParser|RequestParse|HttpServer|Shard|CircuitBreaker|ServerChaosConfig'

echo "=== [6/6] ASan+UBSan build + chaos sanitizer gate ==="
cmake -B "$ROOT/build-asan-ubsan" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPRECIS_SANITIZE="address,undefined"
cmake --build "$ROOT/build-asan-ubsan" -j "$JOBS" \
  --target fault_injection_test fuzz_lite_test service_test \
           arena_test columnar_test server_test shard_test lru_cache_test \
           answer_cache_test parallel_dbgen_test task_pool_test storage_test \
           serialization_test symbol_table_test execution_context_test \
           json_export_test text_test database_generator_test
PRECIS_TASK_POOL_THREADS=4 \
  ctest --test-dir "$ROOT/build-asan-ubsan" --output-on-failure -j "$JOBS" \
  -R 'FaultInjector|Retry|FaultChaos|CacheTaint|Service|FuzzLite|Arena|Column|FlatKeySet|LruCache|Relation|Database|Serialization|JsonLite|HttpParser|RequestParse|HttpServer|Shard|AnswerCache|CircuitBreaker|ServerChaosConfig|ParallelDbGen|TaskPool|SymbolTable|ExecutionContext|AnswerToJson|JsonEscape|ValueToJson|InvertedIndex|Tokenizer|PaperExample|Strategy'

echo "=== CI passed (Release + bench smokes + server smoke + chaos drill + $SANITIZER + asan,ubsan chaos) ==="
