#pragma once
// The Theorem 5.1 pipeline: T → canonical T* → link-connected T', plus
// structural diagnostics. T is wait-free solvable iff there is a continuous
// map |I| → |O'| carried by Δ' — which the solver layer then probes from
// both sides (map search for possibility, obstruction engines for
// impossibility).

#include <cstddef>
#include <string>
#include <vector>

#include "core/link_connected.h"
#include "tasks/task.h"
#include "topology/homology.h"

namespace trichroma {

struct CharacterizationResult {
  Task canonical;       ///< T* (Section 3)
  Task link_connected;  ///< T' (Theorem 4.3)
  std::vector<SplitEvent> splits;

  // Shape diagnostics of the output complex before/after splitting.
  std::size_t output_components_before = 0;
  std::size_t output_components_after = 0;
  BettiNumbers output_betti_before;
  BettiNumbers output_betti_after;

  std::string report(const VertexPool& pool) const;
};

/// Runs canonicalization followed by iterated LAP elimination, on a
/// three-process task. The returned tasks share the input task's vertex pool.
CharacterizationResult characterize(const Task& task);

}  // namespace trichroma
