// Quickstart: define a chromatic task, run the paper's characterization
// pipeline, and decide wait-free solvability.
//
//   $ example_quickstart
//
// The example builds the hourglass task (Figure 2 of the paper), shows the
// canonical form, splits its local articulation point, and reports the
// solvability verdict with the obstruction that proves it.

#include <cstdio>

#include "core/characterization.h"
#include "solver/pipeline.h"
#include "tasks/zoo.h"

int main() {
  using namespace trichroma;

  // 1. Pick a task from the zoo (or build your own Task{pool, I, O, Δ}).
  const Task task = zoo::hourglass();
  std::printf("== %s ==\n%s\n", task.name.c_str(), task.summary().c_str());

  // 2. Run the characterization pipeline: canonicalize, then split local
  //    articulation points until the task is link-connected (Theorem 4.3).
  const CharacterizationResult pipeline = characterize(task);
  std::printf("%s\n", pipeline.report(*task.pool).c_str());

  // 3. Decide solvability (Theorem 5.1 both ways: obstructions on T' for
  //    impossibility, decision-map search for possibility).
  const PipelineReport report = run_pipeline(task).report;
  std::printf("verdict: %s\nreason: %s\n", to_string(report.verdict),
              report.reason.c_str());

  // 4. Contrast with the colorless view: the hourglass satisfies the
  //    colorless ACT condition (a continuous map exists), so a color-
  //    agnostic decision map is findable even though the chromatic task is
  //    unsolvable — the gap the paper's characterization explains.
  const MapSearchResult colorless = colorless_probe(task, 2);
  std::printf("colorless solvable: %s\n", colorless.found ? "yes" : "no");
  return report.verdict == Verdict::Unknown ? 1 : 0;
}
