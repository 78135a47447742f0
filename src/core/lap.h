#pragma once
// Local articulation points (Section 4 of the paper).
//
// For an input facet σ, a vertex y ∈ Δ(σ) is a *local articulation point
// w.r.t. σ* (LAP) iff its link lk_{Δ(σ)}(y) has at least two connected
// components. LAPs are the chromatic obstruction the paper isolates: they
// are exactly what the splitting deformation removes.

#include <optional>
#include <vector>

#include "tasks/task.h"
#include "topology/graph.h"

namespace trichroma {

/// One detected local articulation point.
struct LapRecord {
  Simplex facet;    ///< the input facet σ
  VertexId vertex;  ///< the articulation vertex y ∈ Δ(σ)
  /// lk_{Δ(σ)}(y) from link_labels: its vertices by id, each labelled with
  /// its component C_1, ..., C_r (labels 0 .. r-1 in order of each
  /// component's smallest vertex; r = link.count ≥ 2).
  ComponentLabels link;
};

/// The LAPs w.r.t. σ of the complex spanned by `facets`, the facet list of
/// Δ(σ) in any order, in vertex-id order: one scan of link component counts
/// over the compiled complex.
std::vector<VertexId> lap_vertices(const std::vector<Simplex>& facets);

/// All LAPs w.r.t. input facet `sigma` of the complex spanned by `facets`,
/// the facet list of Δ(σ) in any order, in vertex-id order.
std::vector<LapRecord> find_laps(const Simplex& sigma, const std::vector<Simplex>& facets);

/// All LAPs of `task` w.r.t. input facet `sigma`, in vertex-id order.
std::vector<LapRecord> find_laps(const Task& task, const Simplex& sigma);

/// All LAPs of `task` across all input facets, facet-major order.
std::vector<LapRecord> find_all_laps(const Task& task);

/// The first LAP w.r.t. `sigma` if any (smallest vertex id).
std::optional<LapRecord> first_lap(const Task& task, const Simplex& sigma);

}  // namespace trichroma
