// Engine micro-benchmarks: subdivision growth, LAP detection, splitting,
// and the decision-map probe cost as a function of the subdivision radius.
//
// The decision-map benchmark compares the two engine generations, selected
// by its second argument:
//   1      — the seed engine's per-radius probe: recompute Ch^r from
//            scratch, rebuild every Δ-image and edge mask;
//   N > 1  — the current engine: SubdivisionLadder (Ch^r memoized, Ch^{r+1}
//            derived by one subdivide_once) and a shared DeltaImageCache
//            (images + edge-mask classes reused across radii), warmed once.
// Every search runs on the calling thread, so all N > 1 columns time the
// same warm engine; the column names are kept so the committed baseline
// still matches.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/characterization.h"
#include "core/lap.h"
#include "solver/map_search.h"
#include "tasks/zoo.h"
#include "topology/subdivision.h"

namespace {

using namespace trichroma;

// The radius sweep 0..R as the seed's decide_solvability ran it: every
// radius recomputes all rounds from scratch (the r-th probe pays r rounds
// again), versus the SubdivisionLadder, where the r-th probe derives Ch^r
// from the memoized Ch^{r-1} in a single subdivide_once step. The delta
// between the two *is* the recomputation of the lower rounds — at R = 2 the
// cold sweep subdivides round 0 three times and round 1 twice.
void BM_SubdivisionSweepCold(benchmark::State& state) {
  const int max_radius = static_cast<int>(state.range(0));
  for (auto _ : state) {
    VertexPool pool;
    SimplicialComplex base;
    base.add(Simplex{pool.vertex(0, 0), pool.vertex(1, 1), pool.vertex(2, 2)});
    std::size_t facets = 0;
    for (int r = 0; r <= max_radius; ++r) {
      facets += chromatic_subdivision(pool, base, r).complex.count(2);
    }
    benchmark::DoNotOptimize(facets);
  }
}
BENCHMARK(BM_SubdivisionSweepCold)->Arg(1)->Arg(2)->Arg(3);

void BM_SubdivisionSweepLadder(benchmark::State& state) {
  const int max_radius = static_cast<int>(state.range(0));
  for (auto _ : state) {
    VertexPool pool;
    SimplicialComplex base;
    base.add(Simplex{pool.vertex(0, 0), pool.vertex(1, 1), pool.vertex(2, 2)});
    SubdivisionLadder ladder(pool, base);
    std::size_t facets = 0;
    for (int r = 0; r <= max_radius; ++r) {
      facets += ladder.at(r).complex.count(2);
    }
    benchmark::DoNotOptimize(facets);
  }
}
BENCHMARK(BM_SubdivisionSweepLadder)->Arg(1)->Arg(2)->Arg(3);

void BM_LapDetection(benchmark::State& state) {
  const Task task = zoo::pinwheel();
  for (auto _ : state) {
    benchmark::DoNotOptimize(find_all_laps(task).size());
  }
}
BENCHMARK(BM_LapDetection);

void BM_CharacterizationPipeline(benchmark::State& state) {
  for (auto _ : state) {
    const Task task = zoo::pinwheel();
    const CharacterizationResult result = characterize(task);
    benchmark::DoNotOptimize(result.splits.size());
  }
}
BENCHMARK(BM_CharacterizationPipeline);

// One radius-r possibility probe of the calibration task (subdivision task
// of intrinsic radius 2 — unsatisfiable at radius < 2 with Ch^2-sized Δ
// images, the shape that dominates decide_solvability). Arg(1) selects the
// engine generation described in the file comment: 1 is the seed baseline
// (cold subdivision, cold images); > 1 is the current engine (ladder +
// image/mask cache, warm).
void BM_DecisionMapSearch(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  const bool warm = state.range(1) > 1;
  const Task task = zoo::subdivision_task(2);
  SubdivisionLadder ladder(*task.pool, task.input);
  DeltaImageCache images;
  MapSearchOptions options;
  if (warm) {
    options.image_cache = &images;
    // Warm the caches once: in decide_solvability the radius-r probe runs
    // after radii 0..r-1 already populated the ladder and the Δ cache.
    find_decision_map(*task.pool, ladder.at(rounds), task, options);
  }
  for (auto _ : state) {
    MapSearchResult result;
    if (warm) {
      result = find_decision_map(*task.pool, ladder.at(rounds), task, options);
    } else {
      const SubdividedComplex domain =
          chromatic_subdivision(*task.pool, task.input, rounds);
      result = find_decision_map(*task.pool, domain, task, options);
    }
    benchmark::DoNotOptimize(result.found);
  }
}
BENCHMARK(BM_DecisionMapSearch)
    ->Args({0, 1})
    ->Args({0, 4})
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({1, 8})
    ->Args({2, 1})
    ->Args({2, 4});

}  // namespace

int main(int argc, char** argv) {
  trichroma::benchutil::add_build_type_context();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
