// Verdict-store benchmarks: what a --cache-dir actually buys.
//
// Three measurements:
//   1. BM_FingerprintCatalogTask — canonical-labeling cost per catalog task
//      (the warm path's fixed overhead; renaming5 and the loop tasks are
//      the expensive rows: big Δ images, and for renaming5 a 5!-element
//      automorphism group driving 120 leaf comparisons).
//   2. BM_DecideSolvableSubsetCold — the solvable catalog subset through
//      the full pipeline publishing into a fresh store each iteration.
//   3. BM_DecideSolvableSubsetWarm — the same subset replayed from a
//      primed store: fingerprint + record read, no engines.
//   4. BM_DeepenSolvableSubset{Cold,Seeded} — the warm-start pair: deepen
//      radius 1 -> 2 with no store state vs. against a store primed at
//      radius 1 (sibling records + ladder/Δ-image artifacts).
//
// The committed BENCH_cache.json pins the warm/cold and seeded/cold ratios
// the README quotes; the CI release job gates cold-vs-warm regressions
// through tools/bench_compare.py like every other suite.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "solver/pipeline.h"
#include "tasks/fingerprint.h"
#include "tasks/zoo.h"

namespace {

using namespace trichroma;

// Every catalog task the pipeline decides SOLVABLE (the warm-speedup
// acceptance subset; unsolvable tasks replay just as well but their cold
// runs are obstruction-bound and cheap, which would understate the win).
const std::vector<std::string>& solvable_subset() {
  static const std::vector<std::string> kSubset = {
      "identity",         "renaming5", "subdivision0", "subdivision1",
      "approx_agreement", "fan6",      "fig3",         "loop_filled",
      "wsb3",             "approx_agreement_2"};
  return kSubset;
}

std::vector<Task> build_subset() {
  std::vector<Task> tasks;
  for (const zoo::CatalogEntry& e : zoo::catalog()) {
    for (const std::string& name : solvable_subset()) {
      if (name == e.name) tasks.push_back(e.build());
    }
  }
  return tasks;
}

std::string fresh_store_dir() {
  static int counter = 0;
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("trichroma-bench-cache-" + std::to_string(++counter)))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

void BM_FingerprintCatalogTask(benchmark::State& state) {
  const zoo::CatalogEntry& entry =
      zoo::catalog()[static_cast<std::size_t>(state.range(0))];
  const Task task = entry.build();
  std::size_t leaves = 0;
  for (auto _ : state) {
    const FingerprintResult r = fingerprint_task(task);
    leaves = r.stats.leaves;
    benchmark::DoNotOptimize(r.fingerprint.bytes);
  }
  state.SetLabel(entry.name);
  state.counters["leaves"] = static_cast<double>(leaves);
}
BENCHMARK(BM_FingerprintCatalogTask)
    ->DenseRange(0, 20)
    ->Unit(benchmark::kMicrosecond);

void BM_FingerprintCatalogSweep(benchmark::State& state) {
  std::vector<Task> tasks;
  for (const zoo::CatalogEntry& e : zoo::catalog()) tasks.push_back(e.build());
  for (auto _ : state) {
    for (const Task& t : tasks) {
      benchmark::DoNotOptimize(fingerprint_of(t).bytes);
    }
  }
  state.counters["tasks"] = static_cast<double>(tasks.size());
}
BENCHMARK(BM_FingerprintCatalogSweep)->Unit(benchmark::kMillisecond);

void BM_DecideSolvableSubsetCold(benchmark::State& state) {
  const std::vector<Task> tasks = build_subset();
  for (auto _ : state) {
    state.PauseTiming();
    SolvabilityOptions options;
    options.cache_dir = fresh_store_dir();
    state.ResumeTiming();
    for (const Task& t : tasks) {
      benchmark::DoNotOptimize(run_pipeline(t, options).report.verdict);
    }
    state.PauseTiming();
    std::filesystem::remove_all(options.cache_dir);
    state.ResumeTiming();
  }
  state.counters["tasks"] = static_cast<double>(tasks.size());
}
BENCHMARK(BM_DecideSolvableSubsetCold)->Unit(benchmark::kMillisecond);

void BM_DecideSolvableSubsetWarm(benchmark::State& state) {
  const std::vector<Task> tasks = build_subset();
  SolvabilityOptions options;
  options.cache_dir = fresh_store_dir();
  for (const Task& t : tasks) run_pipeline(t, options);  // prime
  for (auto _ : state) {
    for (const Task& t : tasks) {
      benchmark::DoNotOptimize(run_pipeline(t, options).report.verdict);
    }
  }
  std::filesystem::remove_all(options.cache_dir);
  state.counters["tasks"] = static_cast<double>(tasks.size());
}
BENCHMARK(BM_DecideSolvableSubsetWarm)->Unit(benchmark::kMillisecond);

// The warm-start acceptance pair: deepen the solvable subset from radius 1
// to radius 2. Cold deepen has no store state to resume from — every rung
// of every ladder is rebuilt. Artifact-seeded deepen runs against a store
// primed at radius 1, so each task either replays a budget sibling's
// record (witness within the deeper budget) or seeds its ladder/Δ-image
// artifacts and climbs only the missing rungs.
void BM_DeepenSolvableSubsetCold(benchmark::State& state) {
  const std::vector<Task> tasks = build_subset();
  for (auto _ : state) {
    state.PauseTiming();
    SolvabilityOptions options;
    options.max_radius = 2;
    options.cache_dir = fresh_store_dir();
    state.ResumeTiming();
    for (const Task& t : tasks) {
      benchmark::DoNotOptimize(run_pipeline(t, options).report.verdict);
    }
    state.PauseTiming();
    std::filesystem::remove_all(options.cache_dir);
    state.ResumeTiming();
  }
  state.counters["tasks"] = static_cast<double>(tasks.size());
}
BENCHMARK(BM_DeepenSolvableSubsetCold)->Unit(benchmark::kMillisecond);

void BM_DeepenSolvableSubsetSeeded(benchmark::State& state) {
  const std::vector<Task> tasks = build_subset();
  for (auto _ : state) {
    // Re-prime every iteration: the timed deepen publishes records under
    // the radius-2 digest, which would turn the next iteration into pure
    // exact-key hits and measure replay, not resumption.
    state.PauseTiming();
    SolvabilityOptions prime;
    prime.max_radius = 1;
    prime.cache_dir = fresh_store_dir();
    for (const Task& t : tasks) run_pipeline(t, prime);
    SolvabilityOptions options = prime;
    options.max_radius = 2;
    state.ResumeTiming();
    for (const Task& t : tasks) {
      benchmark::DoNotOptimize(run_pipeline(t, options).report.verdict);
    }
    state.PauseTiming();
    std::filesystem::remove_all(options.cache_dir);
    state.ResumeTiming();
  }
  state.counters["tasks"] = static_cast<double>(tasks.size());
}
BENCHMARK(BM_DeepenSolvableSubsetSeeded)->Unit(benchmark::kMillisecond);

// The reference row: the same subset with the store off, to separate the
// cold run's store overhead (fingerprint + publish) from engine cost.
void BM_DecideSolvableSubsetNoCache(benchmark::State& state) {
  const std::vector<Task> tasks = build_subset();
  const SolvabilityOptions options;
  for (auto _ : state) {
    for (const Task& t : tasks) {
      benchmark::DoNotOptimize(run_pipeline(t, options).report.verdict);
    }
  }
  state.counters["tasks"] = static_cast<double>(tasks.size());
}
BENCHMARK(BM_DecideSolvableSubsetNoCache)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  trichroma::benchutil::add_build_type_context();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
