// two_process_analysis: Proposition 5.4 in action.
//
// For two processes, wait-free solvability is *exactly* the existence of a
// continuous map |I| → |O| carried by Δ, decided by a finite connectivity
// check: pick an output vertex per input vertex such that each input
// edge's picks are connected inside that edge's image. The example walks
// consensus (unsolvable) and approximate agreement (solvable), showing the
// witness for the latter.

#include <cstdio>

#include "core/obstructions.h"
#include "solver/pipeline.h"
#include "tasks/zoo.h"
#include "topology/graph.h"

using namespace trichroma;

namespace {

void analyze(const Task& task) {
  std::printf("=== %s ===\n", task.name.c_str());
  VertexPool& pool = *task.pool;
  for (const Simplex& e : task.input.simplices(1)) {
    const SimplicialComplex image = task.delta.image_complex(e);
    std::printf("  Δ(%s): %zu edges, %zu component(s)\n",
                e.to_string(pool).c_str(), image.count(1),
                component_count(image));
  }
  const PipelineReport report = run_pipeline(task).report;
  std::printf("verdict: %s\n", to_string(report.verdict));
  if (report.verdict == Verdict::Solvable) {
    const ConnectivityCsp csp = connectivity_csp(task);
    std::printf("witness (corner assignment):\n");
    for (VertexId x : task.input.vertex_ids()) {
      std::printf("  f(%s) = %s\n", pool.name(x).c_str(),
                  pool.name(csp.witness.at(x)).c_str());
    }
  }
  std::printf("\n");
}

}  // namespace

int main() {
  analyze(zoo::consensus_2());
  analyze(zoo::approximate_agreement_2(2));
  analyze(zoo::approximate_agreement_2(4));
  return 0;
}
