// Figure 2 / §6.1 reproduction: the hourglass task.
//
// Paper claims reproduced here:
//  - input complex: a single triangle; output complex: the bowtie around
//    P0's output-1 vertex y plus the periphery fan;
//  - y is the unique local articulation point; its link has exactly two
//    components (Fig. 2, right);
//  - the colorless ACT condition holds (a continuous map |I| → |O| exists,
//    witnessed by a color-agnostic decision map), yet the chromatic task is
//    unsolvable;
//  - splitting y (Fig. 2, center-right) reduces the impossibility to a
//    consensus-style disconnection: Corollary 5.5 fires.

#include "bench_util.h"
#include "core/characterization.h"
#include "core/lap.h"
#include "core/obstructions.h"
#include "solver/pipeline.h"
#include "tasks/zoo.h"
#include "topology/graph.h"
#include "topology/homology.h"

namespace {

using namespace trichroma;

void reproduce() {
  benchutil::header("Figure 2 / §6.1", "the hourglass task");
  const Task task = zoo::hourglass();
  VertexPool& pool = *task.pool;
  std::printf("%s", task.summary().c_str());

  benchutil::section("output complex (center left)");
  std::printf("%s", task.output.to_string(pool).c_str());
  const BettiNumbers b = betti_numbers(task.output);
  std::printf("Betti numbers: b0=%lld b1=%lld (the waist ring is the hole)\n",
              b.b0, b.b1);

  benchutil::section("the link of y (right)");
  const auto laps = find_all_laps(task);
  for (const LapRecord& lap : laps) {
    std::printf("LAP %s w.r.t. %s; link components:\n",
                pool.name(lap.vertex).c_str(), lap.facet.to_string(pool).c_str());
    for (const auto& comp : lap.link.groups()) {
      std::printf("  {");
      for (std::size_t i = 0; i < comp.size(); ++i) {
        std::printf("%s%s", i ? ", " : "", pool.name(comp[i]).c_str());
      }
      std::printf("}\n");
    }
  }

  benchutil::section("colorless vs chromatic solvability");
  const MapSearchResult colorless = colorless_probe(task, 2);
  std::printf("color-agnostic decision map: %s (found at some Ch^r, r<=2)\n",
              colorless.found ? "FOUND" : "none");
  const PipelineReport report = run_pipeline(task).report;
  std::printf("chromatic verdict: %s\n  %s\n", to_string(report.verdict),
              report.reason.c_str());

  benchutil::section("after splitting (center right)");
  const CharacterizationResult c = characterize(task);
  std::printf("%s", c.report(pool).c_str());
  std::printf("Corollary 5.5 on T*: %s\n",
              corollary_5_5(c.canonical).fires ? "fires" : "silent");
  std::printf("connectivity CSP on T': %s\n",
              connectivity_csp(c.link_connected).feasible ? "feasible"
                                                          : "INFEASIBLE");
  std::printf("(paper: splitting reduces the proof from 2-set-agreement "
              "hardness to a consensus-style argument)\n");
}

void BM_HourglassLapDetection(benchmark::State& state) {
  const Task task = zoo::hourglass();
  for (auto _ : state) {
    benchmark::DoNotOptimize(find_all_laps(task).size());
  }
}
BENCHMARK(BM_HourglassLapDetection);

void BM_HourglassColorlessProbe(benchmark::State& state) {
  const Task task = zoo::hourglass();
  for (auto _ : state) {
    benchmark::DoNotOptimize(colorless_probe(task, 2).found);
  }
}
BENCHMARK(BM_HourglassColorlessProbe);

void BM_HourglassVerdict(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_pipeline(zoo::hourglass()).report.verdict);
  }
}
BENCHMARK(BM_HourglassVerdict);

}  // namespace

int main(int argc, char** argv) {
  return trichroma::benchutil::bench_main(argc, argv, reproduce);
}
