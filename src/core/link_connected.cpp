#include "core/link_connected.h"

#include <cassert>
#include <optional>
#include <stdexcept>
#include <vector>

namespace trichroma {

LinkConnectedResult make_link_connected(const Task& canonical_task) {
  if (!canonical_task.is_canonical()) {
    throw std::logic_error("make_link_connected requires a canonical task");
  }
  require_triangle_inputs(canonical_task, "make_link_connected");
  LinkConnectedResult result;
  result.task = canonical_task;
  Task& task = result.task;

  // Theorem 4.3's schedule: clean facets one at a time; Lemma 4.1
  // guarantees no facet regresses once cleaned. Within a facet σ, one scan
  // is the whole worklist: splitting y removes exactly y from the LAPs
  // w.r.t. σ, because each copy's link is a single component and every
  // other vertex sees y renamed to a single fresh copy. So the scanned LAPs
  // split in vertex-id order are the ones a rescan after every split would
  // pick. The renaming can reorder a later LAP's link components, and that
  // order numbers the copies, so each LAP's link is read from σ's current
  // row just before its split. The workspace is built at the first LAP: a
  // task without one pays only for its scans.
  std::optional<SplitWorkspace> rows;
  const int top = task.input.dimension();
  for (const Simplex& sigma : task.input.simplices(top)) {
    const std::vector<VertexId> laps =
        lap_vertices(rows ? rows->row(sigma) : task.delta.facet_images(sigma));
    if (!laps.empty() && !rows) rows.emplace(task);
    for (VertexId y : laps) {
      const LapRecord lap{sigma, y, link_labels(rows->row(sigma), y)};
      if (lap.link.count < 2) {
        throw std::logic_error("make_link_connected: a split removed a later LAP");
      }
      std::vector<VertexId> copies = rows->split(lap);
      result.history.push_back(SplitEvent{sigma, y, lap.link.count, std::move(copies)});
    }
  }
  // The splits rewrote only the rows: write them back, then O′ = ∪ Δ′(τ).
  if (rows) rows->finish();
  assert(task.is_link_connected());
  return result;
}

VertexId unsplit_vertex(VertexPool& pool, VertexId v) { return split_root(pool, v); }

}  // namespace trichroma
