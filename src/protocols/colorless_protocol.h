#pragma once
// Color-agnostic ("colorless") protocols: the A_C consumed by the paper's
// Figure-7 algorithm (Lemma 5.3).
//
// A color-agnostic algorithm for a task lets processes starting on an input
// simplex σ decide output vertices that all lie on one simplex of Δ(σ) —
// but a process may land on a vertex whose color is not its own. We obtain
// one constructively: the solver's color-agnostic probe
// (ProbeEngine(task, ProbeKind::ColorlessDirect), solver/engine.h) searches
// for a decision map δ : Ch^r(I) → O carried by Δ, and the protocol is "run
// r IIS rounds, decide δ(view)".

#include <optional>

#include "solver/map_search.h"
#include "tasks/task.h"

namespace trichroma::protocols {

/// A synthesized color-agnostic algorithm: r rounds of IIS followed by a
/// (not necessarily color-preserving) decision map.
struct ColorlessAlgorithm {
  int rounds = 0;
  VertexMap decision;  ///< defined on every vertex of Ch^rounds(task.input)
};

/// Runs the color-agnostic probe on `task` over radii 0..max_radius, each
/// rung capped at `node_cap` search nodes. Returns nullopt if no map is
/// found within the budget.
std::optional<ColorlessAlgorithm> synthesize_colorless(
    const Task& task, int max_radius, std::size_t node_cap = 20'000'000);

}  // namespace trichroma::protocols
