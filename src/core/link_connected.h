#pragma once
// Iterated LAP elimination (Theorem 4.3): transforms a canonical task into a
// link-connected task with the same solvability, by repeatedly applying the
// splitting deformation, facet by facet.

#include <string>
#include <vector>

#include "core/lap.h"
#include "core/splitting.h"
#include "tasks/task.h"

namespace trichroma {

struct SplitEvent {
  Simplex facet;                 ///< the facet σ the LAP was detected against
  VertexId vertex;               ///< the split vertex y
  std::size_t component_count;   ///< r = number of link components
  std::vector<VertexId> copies;  ///< the copies y_1 ... y_r
};

struct LinkConnectedResult {
  Task task;                        ///< T' = (I, O', Δ'), link-connected
  std::vector<SplitEvent> history;  ///< every split performed, in order
};

/// Applies Theorem 4.3 to a *canonical* three-process task (std::logic_error
/// otherwise): repeatedly eliminates LAPs until the task is link-connected.
/// Deterministic: facets in sorted order, within a facet the smallest LAP
/// vertex first. Each facet is scanned for LAPs once. From the first LAP on,
/// the splits rewire a SplitWorkspace, whose rows are written back into Δ′,
/// and O′ derived from it, once after the last split.
LinkConnectedResult make_link_connected(const Task& canonical_task);

/// Maps an output vertex of the split task back to the output vertex of the
/// pre-split task it descends from (identity for unsplit vertices). This is
/// the translation A_y → A in Lemma 4.2's easy direction.
VertexId unsplit_vertex(VertexPool& pool, VertexId v);

}  // namespace trichroma
