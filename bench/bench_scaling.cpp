// Multi-core scaling: BM_BatchJobs sweeps whole-task pipelines (one
// catalog task per executor job) over worker counts 1/2/4/8 — the one
// parallel layer. On a multi-core host the curve shows real speedup; on a
// 1-core container it documents that extra workers cost nothing. Every row
// computes the identical result, which is what lets this suite compare
// rows at all.

#include <benchmark/benchmark.h>

#include <cstddef>

#include "bench_util.h"
#include "solver/batch.h"

namespace {

using namespace trichroma;

// Whole-zoo batch wall clock at increasing --jobs. The long pole is the
// slowest single task, so speedup saturates well below the job count.
void BM_BatchJobs(benchmark::State& state) {
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
BENCHMARK(BM_BatchJobs)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  trichroma::benchutil::add_build_type_context();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
