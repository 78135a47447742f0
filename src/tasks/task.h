#pragma once
// Task: the triple (I, O, Δ) of the topological model of distributed
// computing, for n asynchronous wait-free processes (n = 3 throughout the
// paper's main results).
//
// All complexes of one task (and of everything derived from it: canonical
// form, split forms, subdivisions, protocol complexes) share one VertexPool,
// held by shared_ptr so pipeline stages can extend the universe in place.

#include <memory>
#include <string>
#include <vector>

#include "tasks/carrier_map.h"
#include "topology/complex.h"
#include "topology/vertex.h"

namespace trichroma {

struct Task {
  std::shared_ptr<VertexPool> pool;
  std::string name;
  int num_processes = 3;
  SimplicialComplex input;
  SimplicialComplex output;
  CarrierMap delta;

  /// Structural validation: complexes chromatic and of dimension
  /// num_processes - 1, Δ a valid carrier map over `input`, and the output
  /// complex reachable (O = ∪σ Δ(σ)). Returns violations (empty = valid).
  /// `relax_vertex_monotonicity` tolerates solo-level monotonicity slack,
  /// which the splitting deformation introduces (see CarrierMap::validate).
  std::vector<std::string> validate(bool relax_vertex_monotonicity = false) const;

  /// True iff Δ is one-to-one in the sense of Section 3 of the paper: every
  /// output simplex is a facet image of at most one input simplex. Images of
  /// distinct input simplices may still share lower-dimensional faces.
  bool is_canonical() const;

  /// True iff for every input facet σ and vertex y ∈ Δ(σ), the link
  /// lk_{Δ(σ)}(y) is connected — i.e. the task has no local articulation
  /// points (Section 4).
  bool is_link_connected() const;

  /// Human-readable structural summary.
  std::string summary() const;
};

/// True iff every vertex of the complex spanned by `facets` has a connected
/// or empty link. For the facet list of Δ(σ): no LAP w.r.t. σ.
bool is_link_connected(const std::vector<Simplex>& facets);

/// Deep copy of `task` into a fresh VertexPool, preserving every id: the
/// source pool's values and vertices are replayed into the new pool in id
/// order, which (both pools being deduplicated) reproduces identical
/// ValueIds and VertexIds, so the complexes and Δ are copied verbatim.
/// The pipeline runs its impossibility chain on a clone, so the chain's
/// interning never shifts the ids the chromatic probe sees.
Task clone_task(const Task& task);

}  // namespace trichroma
