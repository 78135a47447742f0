// design_your_task: build a chromatic task from scratch with the public
// API, validate it, run the characterization pipeline, and — if solvable —
// synthesize and execute a wait-free protocol for it.
//
// The task built here: "weak preference agreement". Three processes each
// start with a preferred value in {0, 1}. Each decides one of the values
// {0, 1, 2}, where 2 means "conflict". Rules:
//  - a process running with no opposition (all participants share its
//    preference) must decide the common preference;
//  - when both preferences are present among the participants, every
//    process may decide its own preference or 2;
//  - decisions must always form an output simplex listed below.

#include <cstdio>

#include "protocols/pipeline.h"
#include "solver/pipeline.h"
#include "tasks/zoo.h"

using namespace trichroma;

int main() {
  // 1. Describe the task with the value-predicate factory: input/output
  //    value domains per process plus an "allowed" predicate on the
  //    participating processes' values. The factory enumerates all
  //    participation patterns and builds (I, O, Δ).
  zoo::ValueTaskSpec spec;
  spec.name = "weak-preference-agreement";
  spec.num_processes = 3;
  spec.input_domain.assign(3, {0, 1});
  spec.output_domain.assign(3, {0, 1, 2});
  spec.allowed = [](const std::vector<Color>&, const std::vector<std::int64_t>& in,
                    const std::vector<std::int64_t>& out) {
    bool has0 = false, has1 = false;
    for (std::int64_t v : in) (v == 0 ? has0 : has1) = true;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (!has0 || !has1) {
        // No opposition: must decide the common preference.
        if (out[i] != in[0]) return false;
      } else {
        // Conflict allowed: own preference or the conflict marker.
        if (out[i] != in[i] && out[i] != 2) return false;
      }
    }
    return true;
  };
  const Task task = zoo::make_value_task(spec);

  // 2. Validate the carrier-map structure before doing anything else.
  const auto errors = task.validate();
  if (!errors.empty()) {
    std::printf("task is malformed: %s\n", errors.front().c_str());
    return 1;
  }
  std::printf("%s\n", task.summary().c_str());

  // 3. Decide solvability via the paper's characterization.
  const PipelineReport report = run_pipeline(task).report;
  std::printf("verdict: %s\nreason:  %s\n\n", to_string(report.verdict),
              report.reason.c_str());
  if (report.verdict != Verdict::Solvable) return 0;

  // 4. A Solvable verdict is constructive: build the end-to-end protocol
  //    stack (canonicalize → split → color-agnostic solution → Figure-7
  //    chromatic completion) and execute it on the simulator.
  const auto solver = protocols::build_end_to_end(task, 2);
  if (!solver.has_value()) {
    std::printf("(direct witness exists but the end-to-end synthesis needs a "
                "deeper radius)\n");
    return 0;
  }
  int valid_runs = 0, total_runs = 0;
  for (const Simplex& facet : task.input.simplices(2)) {
    std::vector<std::pair<int, VertexId>> inputs;
    for (int i = 0; i < 3; ++i) inputs.emplace_back(i, facet[static_cast<std::size_t>(i)]);
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      const auto run = protocols::run_end_to_end(*solver, task, inputs, seed);
      ++total_runs;
      valid_runs += run.valid ? 1 : 0;
    }
  }
  std::printf("executed the synthesized protocol: %d/%d runs valid\n",
              valid_runs, total_runs);
  return valid_runs == total_runs ? 0 : 1;
}
