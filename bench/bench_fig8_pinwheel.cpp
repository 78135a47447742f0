// Figure 8 / §6.2 reproduction: the pinwheel task.
//
// Paper claims reproduced here:
//  - the pinwheel is a subtask of inputless 2-set agreement keeping all
//    vertex/edge outputs and nine triangles;
//  - unlike the hourglass, it has no continuous map |I| → |O| even
//    colorlessly (the homological engine certifies it);
//  - Corollary 5.5 cannot be applied directly (paths still exist per edge);
//    Corollary 5.6 fires: every cycle in Δ(Skel¹I) goes through a LAP;
//  - splitting the six LAPs yields three disconnected blades, and no blade
//    offers an output vertex to every process — so the task is unsolvable.

#include "bench_util.h"
#include "core/characterization.h"
#include "core/lap.h"
#include "core/obstructions.h"
#include "solver/pipeline.h"
#include "tasks/canonical.h"
#include "tasks/zoo.h"
#include "topology/graph.h"
#include "topology/homology.h"

namespace {

using namespace trichroma;

void reproduce() {
  benchutil::header("Figure 8 / §6.2", "the pinwheel task");
  const Task task = zoo::pinwheel();
  std::printf("%s", task.summary().c_str());

  benchutil::section("the nine kept triangles (value vectors)");
  for (const auto& v : zoo::pinwheel_kept_vectors()) {
    std::printf("  (%d, %d, %d)\n", v[0], v[1], v[2]);
  }
  std::printf("vs 2-set agreement's 21; all 12 edge outputs are kept intact\n");

  benchutil::section("no continuous map, even colorlessly");
  const HomologyObstruction hom = homology_boundary_check(task);
  std::printf("homological boundary check: %s\n  %s\n",
              hom.feasible ? "feasible (?!)" : "INFEASIBLE", hom.detail.c_str());

  benchutil::section("the corollaries");
  const Task star = canonicalize(task);
  std::printf("Corollary 5.5: %s (paper: cannot be used directly)\n",
              corollary_5_5(star).fires ? "fires" : "silent");
  const CorollaryResult c56 = corollary_5_6(star);
  std::printf("Corollary 5.6: %s\n  %s\n", c56.fires ? "FIRES" : "silent",
              c56.detail.c_str());

  benchutil::section("splitting into three blades");
  const CharacterizationResult c = characterize(task);
  std::printf("%s", c.report(*c.canonical.pool).c_str());
  const auto blades = connected_components(c.link_connected.output);
  std::printf("blades: %zu", blades.size());
  for (const auto& blade : blades) std::printf("  |V|=%zu", blade.size());
  std::printf("\n");
  // The §6.2 chain: each blade misses all copies of some process's solo
  // output.
  const Task& tp = c.link_connected;
  VertexPool& pool = *tp.pool;
  for (std::size_t b = 0; b < blades.size(); ++b) {
    std::printf("  blade %zu misses solo outputs of:", b);
    for (VertexId x : tp.input.vertex_ids()) {
      bool present = false;
      for (VertexId v : tp.delta.image_complex(Simplex::single(x)).vertex_ids()) {
        for (VertexId w : blades[b]) {
          if (v == w) present = true;
        }
      }
      if (!present) std::printf(" %s", pool.name(x).c_str());
    }
    std::printf("\n");
  }

  benchutil::section("verdict");
  const PipelineReport report = run_pipeline(task).report;
  std::printf("%s — %s\n", to_string(report.verdict), report.reason.c_str());
}

void BM_PinwheelHomology(benchmark::State& state) {
  const Task task = zoo::pinwheel();
  for (auto _ : state) {
    benchmark::DoNotOptimize(homology_boundary_check(task).feasible);
  }
}
BENCHMARK(BM_PinwheelHomology);

void BM_PinwheelCor56(benchmark::State& state) {
  const Task star = canonicalize(zoo::pinwheel());
  for (auto _ : state) {
    benchmark::DoNotOptimize(corollary_5_6(star).fires);
  }
}
BENCHMARK(BM_PinwheelCor56);

void BM_PinwheelVerdict(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_pipeline(zoo::pinwheel()).report.verdict);
  }
}
BENCHMARK(BM_PinwheelVerdict);

}  // namespace

int main(int argc, char** argv) {
  return trichroma::benchutil::bench_main(argc, argv, reproduce);
}
