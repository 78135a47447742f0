// impossibility_tour: the two obstruction types of the paper (§7), on its
// own worked examples.
//
//  1. Local articulation points — chromatic-only, decidable, removable by
//     splitting (hourglass, majority consensus).
//  2. Contractibility-type obstructions — present already colorlessly,
//     undecidable in general, certified here over GF(2) (pinwheel, 2-set
//     agreement, hollow loop agreement).

#include <cstdio>

#include "core/characterization.h"
#include "core/lap.h"
#include "core/obstructions.h"
#include "solver/pipeline.h"
#include "tasks/canonical.h"
#include "tasks/zoo.h"
#include "topology/graph.h"

using namespace trichroma;

namespace {

void analyze(const Task& task) {
  std::printf("=== %s ===\n", task.name.c_str());
  const Task star = canonicalize(task);
  std::printf("LAPs (on T*): %zu\n", find_all_laps(star).size());

  const HomologyObstruction colorless = homology_boundary_check(task);
  std::printf("colorless obstruction on T:  %s\n",
              colorless.feasible ? "none" : colorless.detail.c_str());

  const CharacterizationResult c = characterize(task);
  std::printf("splits: %zu, output components %zu -> %zu\n", c.splits.size(),
              c.output_components_before, c.output_components_after);
  const ConnectivityCsp csp = connectivity_csp(c.link_connected);
  const HomologyObstruction hom = homology_boundary_check(c.link_connected);
  std::printf("post-split: connectivity %s, homology %s\n",
              csp.feasible ? "feasible" : "INFEASIBLE",
              hom.feasible ? "feasible" : "INFEASIBLE");

  const PipelineReport report = run_pipeline(task).report;
  std::printf("verdict: %s\n\n", to_string(report.verdict));
}

}  // namespace

int main() {
  std::printf("Obstruction type 1: local articulation points\n");
  std::printf("---------------------------------------------\n");
  analyze(zoo::hourglass());
  analyze(zoo::majority_consensus());

  std::printf("Obstruction type 2: contractibility (no continuous map)\n");
  std::printf("-------------------------------------------------------\n");
  analyze(zoo::set_agreement_32());
  analyze(zoo::loop_agreement_hollow_triangle());

  std::printf("Both at once: the pinwheel\n");
  std::printf("--------------------------\n");
  analyze(zoo::pinwheel());

  std::printf("Control group (solvable)\n");
  std::printf("------------------------\n");
  analyze(zoo::subdivision_task(1));
  analyze(zoo::approximate_agreement(2));
  return 0;
}
