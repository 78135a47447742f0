#!/usr/bin/env bash
# Runs a benchmark suite and writes machine-readable results to
# BENCH_<suite>.json at the repo root (committed, so perf changes show up as
# a diff). Usage:
#
#   tools/run_bench.sh [suite] [build-dir] [extra google-benchmark flags...]
#
# Suites:
#   engine     bench_engine_perf  -> BENCH_engine.json     (default)
#   substrate  bench_substrate    -> BENCH_substrate.json
#   batch      bench_batch        -> BENCH_batch.json
#   cache      bench_cache        -> BENCH_cache.json
#   obs        bench_obs          -> BENCH_obs.json
#   ladder     bench_ladder       -> BENCH_ladder.json
#
# e.g.  tools/run_bench.sh engine build-release --benchmark_filter=BM_DecisionMapSearch
#       tools/run_bench.sh batch build-release --benchmark_filter=BM_ZooBatch
#
# The first argument is treated as a build dir (legacy calling convention)
# when it is not a known suite name. The build dir defaults to
# build-release, and the script refuses a non-Release build — committed
# numbers from unoptimized binaries are worse than no numbers. Set
# BENCH_ALLOW_DEBUG=1 to run one anyway (for local smoke only).
#
# Two build-type fields appear in the JSON context:
#   "trichroma_build_type"  — the code under test; must say "release" in
#                             committed files (checked below).
#   "library_build_type"    — google-benchmark itself. The system package
#                             ships the library without NDEBUG, so this
#                             reads "debug" regardless of how this repo was
#                             compiled; it only affects harness overhead,
#                             not the timed regions.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

suite="engine"
case "${1:-}" in
  engine|substrate|batch|cache|obs|ladder)
    suite="$1"
    shift
    ;;
esac
build_dir="${1:-$repo_root/build-release}"
shift || true

case "$suite" in
  engine) target="bench_engine_perf" ;;
  substrate) target="bench_substrate" ;;
  batch) target="bench_batch" ;;
  cache) target="bench_cache" ;;
  obs) target="bench_obs" ;;
  ladder) target="bench_ladder" ;;
esac

bench="$build_dir/bench/$target"
if [[ ! -x "$bench" ]]; then
  echo "error: $bench not found or not executable." >&2
  echo "Build it first:  cmake -B '$build_dir' -S '$repo_root' -DCMAKE_BUILD_TYPE=Release && cmake --build '$build_dir' -j --target $target" >&2
  exit 1
fi

build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$build_dir/CMakeCache.txt" 2>/dev/null || true)"
case "$build_type" in
  Release|RelWithDebInfo|MinSizeRel) ;;
  *)
    if [[ "${BENCH_ALLOW_DEBUG:-0}" != "1" ]]; then
      echo "error: '$build_dir' is a '${build_type:-unset}' build; benchmarks must run on Release." >&2
      echo "  cmake -B build-release -S '$repo_root' -DCMAKE_BUILD_TYPE=Release && cmake --build build-release -j" >&2
      echo "  (set BENCH_ALLOW_DEBUG=1 to override for a local smoke run — do not commit the output)" >&2
      exit 1
    fi
    echo "warning: benchmarking a '${build_type:-unset}' build (BENCH_ALLOW_DEBUG=1) — do not commit the output" >&2
    ;;
esac

out="$repo_root/BENCH_$suite.json"
"$bench" \
  --benchmark_out="$out" \
  --benchmark_out_format=json \
  --benchmark_repetitions="${BENCH_REPETITIONS:-1}" \
  "$@"

if ! grep -q '"trichroma_build_type": "release"' "$out"; then
  if [[ "${BENCH_ALLOW_DEBUG:-0}" != "1" ]]; then
    echo "error: $out does not record trichroma_build_type=release — stale or debug binary?" >&2
    exit 1
  fi
  echo "warning: $out records a non-release trichroma build — do not commit it" >&2
fi
echo "wrote $out"
