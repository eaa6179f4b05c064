#!/usr/bin/env bash
# scripts/bench.sh — run the STM microbenchmarks and the figure/real
# benches and write the machine-readable perf trajectory file
# BENCH_stm.json (via cmd/benchjson). Commit the refreshed file with
# perf-relevant PRs; git history of BENCH_stm.json is the trajectory.
#
# Not part of the default verify.sh gate (benchmarks are minutes, the
# gate is seconds); run it as `./verify.sh bench` or directly.
#
# Environment knobs:
#   BENCH_TIME   go test -benchtime value   (default 300ms)
#   BENCH_COUNT  go test -count value       (default 1)
#   BENCH_OUT    output file                (default BENCH_stm.json)
#   BENCH_NOTE   free-form note embedded in the report (e.g. baseline
#                numbers the run should be compared against)
set -euo pipefail
cd "$(dirname "$0")/.."

time=${BENCH_TIME:-300ms}
count=${BENCH_COUNT:-1}
out=${BENCH_OUT:-BENCH_stm.json}
note=${BENCH_NOTE:-}

{
  # STM hot-path microbenchmarks (allocation-reporting).
  go test -run '^$' -bench 'BenchmarkSTM' -benchmem -benchtime "$time" -count "$count" ./internal/stm
  # Wall-clock operation benches, simulator figure regenerations, and
  # the root-level STM demonstration benches: the striped hot-map pair,
  # the range-striped sorted-map pair (BenchmarkSTMHotSortedMap[SingleGuard]),
  # and the segmented-queue pair (BenchmarkSTMHotQueueDisjointLanes[SingleLane]),
  # plus the layer-by-layer Get/Put ladder (BenchmarkLadder).
  go test -run '^$' -bench 'BenchmarkReal|BenchmarkFigure|BenchmarkSTM|BenchmarkLadder' -benchmem -benchtime "$time" -count "$count" .
  # Synchrobench-style protocol sweep (protocol × collection × update
  # ratio × goroutine count), including the striped-sortedmap and
  # segmented-queue (lanequeue) columns; its stdout is bench-format
  # text, so it merges into the same report. The human summary goes to
  # stderr with the rest of the bench chatter.
  go run ./cmd/stmsweep
} | tee /dev/stderr | go run ./cmd/benchjson -note "$note" > "$out"

echo "bench: wrote $out" >&2
