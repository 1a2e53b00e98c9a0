#!/usr/bin/env bash
# perf_gate.sh — the repo's one perf source of truth.
#
# Runs the sketch-ingest, WAL, and result-cache benchmark suites and gates
# them against the committed baselines (BENCH_ingest.json, BENCH_wal.json,
# BENCH_cache.json) via internal/tools/benchjson -compare: the build fails
# when any benchmark's ns/op regresses past the threshold, when a hot-path
# benchmark starts allocating more than its baseline (allocations are
# deterministic — any growth is a code change, not noise), or when a cache
# policy's zipf hit rate drops below its baseline.
#
# Usage:
#   ./scripts/perf_gate.sh            # gate against committed baselines
#   ./scripts/perf_gate.sh --refresh  # re-baseline: overwrite BENCH_*.json
#                                     # with this machine's fresh numbers
#
# Environment:
#   PERF_GATE_THRESHOLD      max ns/op regression %% for the ingest suite
#                            (default 10 — CPU-bound, low variance)
#   PERF_GATE_WAL_THRESHOLD  max ns/op regression %% for the WAL suite
#                            (default 75 — fsync latency on shared storage jitters ~2x;
#                            the gate is for structural regressions like an
#                            accidental per-record fsync, which is +1000%)
#   PERF_GATE_CACHE_THRESHOLD  max ns/op regression %% for the result-cache
#                            suite (default 25 — lock-contention benchmarks
#                            jitter more than single-threaded ones; the zipf
#                            hit-rate metric is gated separately and allows
#                            no drop beyond rounding)
#
# Fresh JSON documents are always left next to the baselines as
# BENCH_ingest.fresh.json / BENCH_wal.fresh.json, so CI can upload them as
# artifacts and a maintainer can inspect or promote them after a red gate.
set -euo pipefail
cd "$(dirname "$0")/.."

THRESHOLD="${PERF_GATE_THRESHOLD:-10}"
WAL_THRESHOLD="${PERF_GATE_WAL_THRESHOLD:-75}"
CACHE_THRESHOLD="${PERF_GATE_CACHE_THRESHOLD:-25}"
REFRESH=0
if [ "${1:-}" = "--refresh" ]; then
  REFRESH=1
fi

# Fail fast if the gate tool itself does not compile, without littering
# the repo root with its binary.
go build -o /dev/null ./internal/tools/benchjson

fail=0

gate_suite() {
  local label="$1" baseline="$2" fresh="$3" threshold="$4"
  shift 4
  echo "== $label benchmarks =="
  local txt
  txt=$(mktemp)
  "$@" | tee "$txt"
  if [ "$REFRESH" = 1 ]; then
    go run ./internal/tools/benchjson < "$txt" > "$baseline"
    echo "re-baselined $baseline"
  else
    # The gate still emits the fresh document on stdout; keep it for
    # artifact upload / promotion.
    if ! go run ./internal/tools/benchjson \
        -compare "$baseline" -threshold "$threshold" -allocs \
        < "$txt" > "$fresh"; then
      fail=1
    fi
  fi
  rm -f "$txt"
}

# Ingest: per-item sketch insert ns/op, 0 allocs/op contract on the
# flattened hot paths. Fixed -benchtime so run length (and the stream prefix each sketch
# sees) is identical to the baseline run; -count=3 because benchjson folds
# repeated runs into their best observation, which cancels scheduler and
# frequency noise on both sides of the comparison.
gate_suite "ingest" BENCH_ingest.json BENCH_ingest.fresh.json "$THRESHOLD" \
  go test -run '^$' -bench 'BenchmarkInsertBatch' \
    -benchtime=1000000x -benchmem -count=3 .

# Durability plane: fsync-bound, so the threshold is looser and allocs per
# op include real per-batch buffers (gated on growth all the same).
gate_suite "wal" BENCH_wal.json BENCH_wal.fresh.json "$WAL_THRESHOLD" \
  go test -run '^$' -bench 'BenchmarkWAL' \
    -benchtime=1000x -benchmem -count=3 ./internal/wal

# Result cache: two fixed run lengths in one suite. The zipf policy
# benchmarks replay a whole 200k-key trace per op (3 replays each is
# plenty — the hit rate they report is deterministic for the trace and is
# gated with no tolerated drop); the hot-path benchmarks are nanosecond
# scale and need the large fixed count, with the 0 allocs/op contract
# enforced via -allocs.
gate_suite "cache" BENCH_cache.json BENCH_cache.fresh.json "$CACHE_THRESHOLD" \
  bash -c "go test -run '^\$' -bench 'BenchmarkCache(LRU|S3FIFO|TinyLFU)\$' \
      -benchtime=3x -benchmem -count=3 ./internal/rcache && \
    go test -run '^\$' -bench 'BenchmarkCache(Hit|MissEvict)' \
      -benchtime=300000x -benchmem -count=3 ./internal/rcache"

if [ "$fail" -ne 0 ]; then
  echo "perf gate: FAILED (see comparisons above)" >&2
  echo "If the regression is intended, re-baseline with: ./scripts/perf_gate.sh --refresh" >&2
  exit 1
fi
if [ "$REFRESH" = 1 ]; then
  echo "perf gate: baselines refreshed"
else
  echo "perf gate: OK"
fi
