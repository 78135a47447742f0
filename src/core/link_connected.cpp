#include "core/link_connected.h"

#include <cassert>
#include <stdexcept>
#include <vector>

#include "topology/graph.h"

namespace trichroma {

namespace {

// The components of lk_{Δ(σ)}(y) in LapRecord::link_components order, built
// from the facets of Δ(σ) through y without compiling Δ(σ).
std::vector<std::vector<VertexId>> link_components(const Task& task,
                                                   const Simplex& sigma, VertexId y) {
  SimplicialComplex link;
  for (const Simplex& rho : task.delta.facet_images(sigma)) {
    if (rho.contains(y)) link.add(rho.without(y));
  }
  return connected_components(link);
}

}  // namespace

LinkConnectedResult make_link_connected(const Task& canonical_task) {
  if (!canonical_task.is_canonical()) {
    throw std::logic_error("make_link_connected requires a canonical task");
  }
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
  // order numbers the copies, so each LAP's components are re-read from the
  // current Δ(σ) just before its split.
  const int top = task.input.dimension();
  for (const Simplex& sigma : task.input.simplices(top)) {
    for (LapRecord& lap : find_laps(task, sigma)) {
      lap.link_components = link_components(task, sigma, lap.vertex);
      if (lap.link_components.size() < 2) {
        throw std::logic_error("make_link_connected: a split removed a later LAP");
      }
      std::vector<VertexId> copies = split_lap_in_place(task, lap);
      result.history.push_back(SplitEvent{sigma, lap.vertex,
                                          lap.link_components.size(),
                                          std::move(copies)});
    }
    assert(task.is_link_connected(sigma));
  }
  // The splits rewrote only Δ; O′ is the union of its images.
  if (!result.history.empty()) task.output = task.delta.reachable_output(task.input);
  return result;
}

VertexId unsplit_vertex(VertexPool& pool, VertexId v) { return split_root(pool, v); }

}  // namespace trichroma
