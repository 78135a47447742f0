// Cold subdivision-ladder builds. Each iteration grows Ch^1..Ch^r of a
// catalog input from a fresh pool — exactly the work a cold probe pays
// before its first search — so the rows time the template-stamping
// substrate itself (canonical-order interning, facet stamping, the
// compiled snapshot).

#include <benchmark/benchmark.h>

#include <cstddef>

#include "bench_util.h"
#include "tasks/zoo.h"
#include "topology/subdivision.h"

namespace {

using namespace trichroma;

// The trailing argument is always 1: it keeps the row names (e.g.
// BM_ColdLadderBuild/3/1) that the committed baseline and ROADMAP cite.

// Cold Ch^r tower of the hourglass input (one base triangle: the densest
// per-facet growth, 13^r facets) at radius r = range(0).
void BM_ColdLadderBuild(benchmark::State& state) {
  const int radius = static_cast<int>(state.range(0));
  std::size_t facets = 0;
  for (auto _ : state) {
    const Task task = zoo::hourglass();
    const SubdividedComplex top =
        chromatic_subdivision(*task.pool, task.input, radius);
    facets = top.complex.count(top.complex.dimension());
    benchmark::DoNotOptimize(facets);
  }
  state.counters["radius"] = static_cast<double>(radius);
  state.counters["facets"] = static_cast<double>(facets);
}
BENCHMARK(BM_ColdLadderBuild)
    ->ArgsProduct({{1, 2, 3}, {1}})
    ->Unit(benchmark::kMillisecond);

// The same build over a wider base (the 6-facet set-agreement input): more
// base simplices per dimension.
void BM_ColdLadderBuildWide(benchmark::State& state) {
  const int radius = static_cast<int>(state.range(0));
  std::size_t facets = 0;
  for (auto _ : state) {
    const Task task = zoo::set_agreement_32();
    const SubdividedComplex top =
        chromatic_subdivision(*task.pool, task.input, radius);
    facets = top.complex.count(top.complex.dimension());
    benchmark::DoNotOptimize(facets);
  }
  state.counters["radius"] = static_cast<double>(radius);
  state.counters["facets"] = static_cast<double>(facets);
}
BENCHMARK(BM_ColdLadderBuildWide)
    ->ArgsProduct({{2}, {1}})
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
