// Figure 1 reproduction: the majority consensus task.
//
// Paper claims reproduced here:
//  - the task satisfies the colorless ACT condition (solvable colorlessly);
//  - after canonicalization it has local articulation points;
//  - splitting them disconnects every mixed-input facet's image into two
//    components, separating P0's solo-0 decision from the edge where the
//    other two processes start with input 1;
//  - hence the task is wait-free unsolvable (Theorem 5.1 / Corollary 5.5
//    shape, realized by the post-split connectivity obstruction).

#include "bench_util.h"
#include "core/characterization.h"
#include "core/lap.h"
#include "core/obstructions.h"
#include "solver/pipeline.h"
#include "tasks/canonical.h"
#include "tasks/zoo.h"
#include "topology/graph.h"

namespace {

using namespace trichroma;

void reproduce() {
  benchutil::header("Figure 1", "the majority consensus task");
  const Task task = zoo::majority_consensus();
  std::printf("%s", task.summary().c_str());

  benchutil::section("colorless view");
  // The paper: majority consensus satisfies the colorless ACT condition.
  // Our decidable shadow of that condition — corner connectivity plus the
  // GF(2) boundary check — indeed finds no obstruction on the original
  // task; a simplicial witness needs a deeper subdivision than the bounded
  // search covers (the obstruction is purely chromatic).
  const HomologyObstruction hom = homology_boundary_check(task);
  std::printf("connectivity + homological obstruction on T: %s "
              "(paper: colorless ACT condition holds)\n",
              hom.feasible ? "none found" : "FOUND (unexpected)");
  const MapSearchResult colorless = colorless_probe(task, 1);
  std::printf("color-agnostic witness at r<=1: %s (deeper radii exceed the "
              "exhaustive budget)\n",
              colorless.found ? "found" : "not found");

  benchutil::section("canonicalization and LAPs");
  const Task star = canonicalize(task);
  const auto laps = find_all_laps(star);
  std::printf("canonical T*: %zu output vertices, %zu triangles, LAPs: %zu\n",
              star.output.count(0), star.output.count(2), laps.size());

  benchutil::section("splitting (Theorem 4.3)");
  const CharacterizationResult c = characterize(task);
  std::printf("splits performed: %zu; link-connected: %s\n", c.splits.size(),
              c.link_connected.is_link_connected() ? "yes" : "no");
  std::printf("per-facet image components after splitting:\n");
  const Task& tp = c.link_connected;
  for (const Simplex& sigma : tp.input.simplices(2)) {
    std::printf("  %-55s -> %zu component(s)\n",
                sigma.to_string(*tp.pool).c_str(),
                component_count(tp.delta.image_complex(sigma)));
  }
  std::printf("(paper: the mixed-input output complex falls into two components)\n");

  benchutil::section("verdict");
  const PipelineReport report = run_pipeline(task).report;
  std::printf("%s — %s\n", to_string(report.verdict), report.reason.c_str());
}

void BM_MajorityCharacterize(benchmark::State& state) {
  for (auto _ : state) {
    const CharacterizationResult c = characterize(zoo::majority_consensus());
    benchmark::DoNotOptimize(c.splits.size());
  }
}
BENCHMARK(BM_MajorityCharacterize);

void BM_MajorityConnectivityCsp(benchmark::State& state) {
  const CharacterizationResult c = characterize(zoo::majority_consensus());
  for (auto _ : state) {
    benchmark::DoNotOptimize(connectivity_csp(c.link_connected).feasible);
  }
}
BENCHMARK(BM_MajorityConnectivityCsp);

void BM_MajorityFullVerdict(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_pipeline(zoo::majority_consensus()).report.verdict);
  }
}
BENCHMARK(BM_MajorityFullVerdict);

}  // namespace

int main(int argc, char** argv) {
  return trichroma::benchutil::bench_main(argc, argv, reproduce);
}
