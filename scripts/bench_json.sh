#!/usr/bin/env bash
# Build the google-benchmark microbenchmarks and write their JSON to the repo
# root, one file per suite:
#
#   corr    BENCH_corr.json    bench_correlation, minus the rank-sweep
#                              BM_ParallelEngineRanks (it re-launches a thread
#                              fleet per iteration and measures coordination).
#                              Includes the universe-scaling entries
#                              (BM_MatrixScaling*: full-matrix Pearson and
#                              Maronna at n = 61/250/1000/2000, scalar vs AVX2
#                              kernel level) — the big universes run a fixed
#                              two iterations, so expect a couple of minutes.
#   obs     BENCH_obs.json     mm::obs hot path: counter increment, histogram
#                              record, span overhead.
#   mpmini  BENCH_mpmini.json  the BM_Transport family: self-loop per-message
#                              cost, blocking pingpong p50/p95/p99 and allocs
#                              per round trip, saturation streaming and the
#                              null-handoff scheduler floor.
#   svc     BENCH_svc.json     backtest service: cold vs memoized 4-paramset
#                              sweeps and the warm CorrStore/DayCache acquires.
#   wire    BENCH_wire.json    mmq wire format: quote parse throughput
#                              (budgeted at > 10 M quotes/s), the carry-buffer
#                              straddle path, encode throughput and loopback
#                              TCP day fetches.
#
# Each benchmark runs 3 times and the file keeps the aggregates (mean,
# median, stddev, cv), so a reader can tell a change from run-to-run drift.
# Each file's "context" records the host it ran on: nproc, the CPU model and
# the CPU flags.
# Usage: scripts/bench_json.sh [build-dir] [suite...]
#        (defaults: build, every suite).
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
shift || true
suites=("$@")
[ ${#suites[@]} -gt 0 ] || suites=(corr obs mpmini svc wire)

declare -A binary=([corr]=bench_correlation [obs]=bench_obs [mpmini]=bench_mpmini
                   [svc]=bench_svc [wire]=bench_wire)
declare -A filter=([corr]=-BM_ParallelEngineRanks [mpmini]=BM_Transport)
targets=()
for s in "${suites[@]}"; do
  [ -n "${binary[$s]:-}" ] || { echo "unknown suite: $s" >&2; exit 2; }
  targets+=("${binary[$s]}")
done

cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j --target "${targets[@]}"

# Context values are comma-separated key=value pairs, so strip commas.
cpu_field() { grep -m1 "^$1" /proc/cpuinfo | cut -d: -f2- | tr -d ',' | xargs; }
context="nproc=$(nproc),cpu_model=$(cpu_field 'model name'),cpu_flags=$(cpu_field flags)"

for s in "${suites[@]}"; do
  out="$repo_root/BENCH_$s.json"
  args=(--benchmark_out="$out" --benchmark_out_format=json
        --benchmark_repetitions=3 --benchmark_report_aggregates_only=true
        --benchmark_context="$context")
  [ -z "${filter[$s]:-}" ] || args+=(--benchmark_filter="${filter[$s]}")
  (cd "$build_dir/bench" && "./${binary[$s]}" "${args[@]}")
  echo "Wrote $out"
done
