#pragma once
// End-to-end executable form of Theorem 5.1.
//
// Given a general task T, build_end_to_end runs the characterization
// pipeline (T → canonical T* → link-connected T'; a two-process task stops
// at T' = T*), synthesizes a color-agnostic solution of T' with the solver,
// and packages the paper's Figure-7 algorithm around it. run_end_to_end then *executes* the whole
// stack on the shared-memory simulator for a chosen set of participants and
// translates the decisions back to the original task (splitting collapses
// copies, canonicalization drops the echoed input), verifying the final
// outputs against the original Δ. This closes the loop:
//
//   solver verdict → runnable protocol → simulated execution → Δ-check.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/characterization.h"
#include "protocols/chromatic_agreement.h"
#include "protocols/colorless_protocol.h"
#include "tasks/task.h"

namespace trichroma::protocols {

struct EndToEndSolver {
  CharacterizationResult characterization;
  ColorlessAlgorithm algorithm;  ///< color-agnostic solution of T'
};

/// Builds the solver stack; nullopt when no color-agnostic decision map for
/// T' is found within `max_radius` (the task may be unsolvable — check the
/// obstruction engines).
std::optional<EndToEndSolver> build_end_to_end(const Task& task, int max_radius,
                                               std::size_t node_cap = 20'000'000);

struct EndToEndRun {
  bool valid = false;  ///< decisions are chromatic and allowed by Δ of T
  std::vector<std::optional<VertexId>> decisions;  ///< in original O, per input
  std::size_t total_operations = 0;
  std::size_t total_jumps = 0;
  std::size_t pivots = 0;
};

/// Executes the stack for the participants `inputs` (pid, input vertex of
/// the original task) under a seeded random adversary.
EndToEndRun run_end_to_end(const EndToEndSolver& solver, const Task& original,
                           const std::vector<std::pair<int, VertexId>>& inputs,
                           std::uint64_t seed);

}  // namespace trichroma::protocols
