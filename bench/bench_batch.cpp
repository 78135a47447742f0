// Batch-driver throughput: the whole 21-task zoo catalog through the
// solvability pipeline at --jobs 1/2/4/8. Each run_batch call starts its
// own threads (min(jobs, tasks) - 1 of them, plus the caller), so every
// iteration pays that spawn and join. On a multi-core host the jobs sweep
// shows the wall-clock scaling of whole-task parallelism (tasks are
// embarrassingly parallel; the long pole is the slowest single task); on a
// single-core host the rows document that the fan-out adds no meaningful
// overhead over the sequential loop. The per-report *contents* are
// identical in every row — the determinism contract pinned by
// batch_driver_test — so this benchmark only measures scheduling.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "solver/batch.h"

namespace {

using namespace trichroma;

void BM_ZooBatch(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  std::size_t tasks = 0;
  for (auto _ : state) {
    BatchOptions options;
    options.jobs = jobs;
    const BatchResult result = run_batch(options);
    tasks = result.tasks.size();
    benchmark::DoNotOptimize(result.unknown);
  }
  state.counters["tasks"] = static_cast<double>(tasks);
  state.counters["jobs"] = static_cast<double>(jobs);
}
BENCHMARK(BM_ZooBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The CI smoke subset: cheap tasks only, for a fast signal that the batch
// path itself (selection, thread fan-out, catalog-order collection) is
// not regressing independently of solver cost.
void BM_ZooBatchSubset(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    BatchOptions options;
    options.jobs = jobs;
    options.only = {"identity", "fig3", "hourglass", "pinwheel",
                    "consensus_2"};
    const BatchResult result = run_batch(options);
    benchmark::DoNotOptimize(result.unknown);
  }
  state.counters["jobs"] = static_cast<double>(jobs);
}
BENCHMARK(BM_ZooBatchSubset)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  trichroma::benchutil::add_build_type_context();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
