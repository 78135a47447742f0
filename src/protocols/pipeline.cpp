#include "protocols/pipeline.h"

#include "core/splitting.h"
#include "tasks/canonical.h"

namespace trichroma::protocols {

std::optional<EndToEndSolver> build_end_to_end(const Task& task, int max_radius,
                                               std::size_t node_cap) {
  EndToEndSolver solver;
  if (task.num_processes == 2) {
    // Section 4's splitting needs three processes; with two participants at
    // most one is a non-pivot, so Figure 7 negotiates no link path: T′ = T*.
    solver.characterization.canonical = canonicalize(task);
    solver.characterization.link_connected = solver.characterization.canonical;
  } else {
    solver.characterization = characterize(task);
  }
  auto algorithm = synthesize_colorless(solver.characterization.link_connected,
                                        max_radius, node_cap);
  if (!algorithm.has_value()) return std::nullopt;
  solver.algorithm = std::move(*algorithm);
  return solver;
}

EndToEndRun run_end_to_end(const EndToEndSolver& solver, const Task& original,
                           const std::vector<std::pair<int, VertexId>>& inputs,
                           std::uint64_t seed) {
  const Task& tp = solver.characterization.link_connected;
  VertexPool& pool = *tp.pool;
  EndToEndRun run;

  const auto outcomes = run_agreement(tp, solver.algorithm, inputs, seed);
  if (!outcomes_valid(tp, inputs, outcomes)) return run;

  // Translate back: collapse split copies (Lemma 4.2's easy direction),
  // then drop the echoed input (Theorem 3.1's easy direction).
  std::vector<VertexId> in_verts, decisions;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    run.total_operations += outcomes[i].operations;
    run.total_jumps += outcomes[i].jumps;
    if (outcomes[i].pivot) ++run.pivots;
    const VertexId canonical_vertex = unsplit_vertex(pool, *outcomes[i].decision);
    const VertexId original_vertex = canonical_output_part(pool, canonical_vertex);
    run.decisions.push_back(original_vertex);
    in_verts.push_back(inputs[i].second);
    decisions.push_back(original_vertex);
  }
  const Simplex tau{Simplex(std::move(in_verts))};
  const Simplex out{Simplex(std::move(decisions))};
  run.valid = original.output.contains(out) && original.delta.allows(tau, out);
  return run;
}

}  // namespace trichroma::protocols
