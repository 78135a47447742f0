#pragma once
// Graph-level topology of 1-dimensional complexes.
//
// Links of vertices in 2-dimensional complexes are graphs; the paper's core
// notion (local articulation points) and its Figure-7 algorithm (shortest
// lexicographically-smallest link paths) both reduce to elementary graph
// computations. Each has one implementation here, over the flat forms the
// hot paths already hold: components are a union-find over a facet list
// (or, for CompiledComplex's link counts, over a vertex's neighbor and
// triangle rows), paths a breadth-first search over a CompiledComplex's
// ascending neighbor rows. The SimplicialComplex signatures are thin
// adapters onto them.

#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <vector>

#include "topology/compiled.h"
#include "topology/complex.h"

namespace trichroma {

/// Disjoint sets over the ids 0 .. n-1, with path halving: the one
/// union-find behind component_labels (and with it link_labels),
/// betti_numbers' b0, CompiledComplex's link component counts and the
/// LAP-split graph of Corollaries 5.5 and 5.6.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) { reset(n); }

  /// Makes each of the ids 0 .. n-1 a set of its own, keeping the storage.
  void reset(std::size_t n) {
    parent_.resize(n);
    std::iota(parent_.begin(), parent_.end(), 0u);
    count_ = n;
  }

  std::uint32_t find(std::uint32_t i) {
    while (parent_[i] != i) i = parent_[i] = parent_[parent_[i]];
    return i;
  }
  /// Joins the sets of `a` and `b`; false if they were one set already.
  bool unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[a] = b;
    --count_;
    return true;
  }
  /// Number of sets.
  std::size_t count() const { return count_; }
  /// Each id's set number, the sets numbered 0, 1, ... in order of their
  /// smallest id.
  std::vector<std::uint32_t> labels();

 private:
  std::vector<std::uint32_t> parent_;
  std::size_t count_ = 0;
};

/// The vertices of the closure of a facet list with their component labels.
struct ComponentLabels {
  std::vector<VertexId> vertices;    ///< sorted by id
  std::vector<std::uint32_t> label;  ///< per vertex: 0, 1, ... in order of
                                     ///< each component's smallest vertex
  std::size_t count = 0;             ///< number of components

  /// The label of `v`, or -1 when `v` is no vertex of the complex.
  std::int32_t of(VertexId v) const;
  /// The components as lists: each sorted by id, ordered by smallest vertex.
  std::vector<std::vector<VertexId>> groups() const;
};

/// Connected components of the closure of `facets` (any simplices;
/// duplicates and faces are fine): a union-find over each facet's vertices.
ComponentLabels component_labels(const std::vector<Simplex>& facets);

/// Components of the link of `y` in the closure of `facets`: component_labels
/// of the faces ρ \ {y} of the facets ρ ∋ y. On Δ(σ)'s facet list this is
/// lk_{Δ(σ)}(y), whose components define a LAP w.r.t. σ and number the copies
/// a split of y makes.
ComponentLabels link_labels(const std::vector<Simplex>& facets, VertexId y);

/// Connected components of the closure of `facets`: component_labels' groups.
std::vector<std::vector<VertexId>> connected_components(const std::vector<Simplex>& facets);

/// Connected components of the 1-skeleton of `k` (isolated vertices form
/// their own components), in the format above.
std::vector<std::vector<VertexId>> connected_components(const SimplicialComplex& k);

/// Number of connected components of `k`'s 1-skeleton.
std::size_t component_count(const SimplicialComplex& k);

/// True iff `k` is non-empty and has exactly one connected component.
bool is_connected(const SimplicialComplex& k);

/// True iff `a` and `b` are in the same component of `k` (both must be
/// vertices of `k`).
bool same_component(const SimplicialComplex& k, VertexId a, VertexId b);

/// Breadth-first search over `k`'s ascending neighbor rows from `root`.
/// Visits the vertices with dist[v] < 0 that `root` reaches, setting
/// dist[v] to the edge count from `root` and parent[v] to the vertex it was
/// reached from (parent[root] = root). Both vectors have num_vertices()
/// entries.
void breadth_first(const CompiledComplex& k, CompiledComplex::Local root,
                   std::vector<std::int32_t>& dist,
                   std::vector<CompiledComplex::Local>& parent);

/// The lexicographically-smallest shortest path from `from` to `to` along
/// edges of `k` (inclusive of endpoints; a solo vertex yields {from}).
/// Lexicographic order compares the sequences of raw vertex ids, matching
/// the paper's "assign a unique number to each vertex" convention.
/// Returns nullopt if no path exists.
std::optional<std::vector<VertexId>> lex_min_shortest_path(const CompiledComplex& k,
                                                           VertexId from, VertexId to);
std::optional<std::vector<VertexId>> lex_min_shortest_path(const SimplicialComplex& k,
                                                           VertexId from, VertexId to);

/// Direction-independent canonical shortest path: both endpoints compute the
/// same path regardless of argument order (the result is reversed as needed
/// so it runs from `from` to `to`). This is the path Π of the paper's
/// Figure-7 algorithm, where the two negotiating processes must agree on
/// one path while naming its endpoints in opposite orders.
std::optional<std::vector<VertexId>> lex_min_shortest_path_symmetric(
    const SimplicialComplex& k, VertexId from, VertexId to);

/// Distance (edge count) between two vertices in `k`, or nullopt.
std::optional<std::size_t> path_distance(const SimplicialComplex& k, VertexId from,
                                         VertexId to);

/// The flat form of `k`'s 1-skeleton, for the adapters above.
std::shared_ptr<const CompiledComplex> compile_one_skeleton(const SimplicialComplex& k);

}  // namespace trichroma
