#pragma once
// SimplicialComplex: a closure-complete, dimension-indexed simplex store.
//
// The complex stores *every* simplex explicitly (not just facets), because
// all the paper's operations — links, stars, skeletons, carrier-map images,
// LAP splitting — are set manipulations over simplices of every dimension.
// Complexes in this codebase are small (hundreds to a few hundred thousand
// simplices), so explicit storage is both simplest and fast enough.

#include <cstddef>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "topology/simplex.h"
#include "topology/vertex.h"

namespace trichroma {

class SimplicialComplex {
 public:
  SimplicialComplex() = default;

  /// Adds a simplex and all of its non-empty faces (closure completion).
  void add(const Simplex& s);
  /// Adds every simplex of `other`.
  void add_all(const SimplicialComplex& other);

  bool contains(const Simplex& s) const;
  bool contains_vertex(VertexId v) const { return contains(Simplex::single(v)); }

  bool empty() const;
  /// Dimension of the complex: max dimension of any simplex; -1 if empty.
  int dimension() const;
  /// Number of simplices of dimension `d`.
  std::size_t count(int d) const;
  /// Total number of simplices (all dimensions).
  std::size_t total_count() const;

  /// All simplices of dimension `d`, in deterministic (sorted) order.
  std::vector<Simplex> simplices(int d) const;
  /// All simplices of every dimension, in deterministic order.
  std::vector<Simplex> all_simplices() const;
  /// All vertices, sorted by id.
  std::vector<VertexId> vertex_ids() const;

  /// Maximal simplices (not contained in any other simplex), sorted.
  std::vector<Simplex> facets() const;

  /// True iff every facet has dimension == dimension().
  bool is_pure() const;

  /// The k-skeleton: all simplices of dimension <= k.
  SimplicialComplex skeleton(int k) const;

  /// The link of `v`: { σ : v ∉ σ and σ ∪ {v} ∈ K }.
  SimplicialComplex link(VertexId v) const;

  /// The closed star of `v`: all simplices containing v, plus their faces.
  SimplicialComplex star(VertexId v) const;

  /// Subcomplex of all simplices whose vertices lie in `allowed`.
  SimplicialComplex induced(const std::unordered_set<VertexId, VertexIdHash>& allowed) const;

  /// Euler characteristic: Σ_d (-1)^d · count(d).
  long long euler_characteristic() const;

  /// True iff the two complexes contain exactly the same simplices.
  bool operator==(const SimplicialComplex& other) const;

  /// True iff every simplex of this complex is in `other`.
  bool subcomplex_of(const SimplicialComplex& other) const;

  /// Multi-line listing of facets, for diagnostics.
  std::string to_string(const VertexPool& pool) const;

  /// Visits every stored simplex (unspecified order); the callback must not
  /// mutate the complex.
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& level : by_dim_)
      for (const Simplex& s : level) f(s);
  }

 private:
  // by_dim_[d] holds the simplices of dimension d.
  std::vector<std::unordered_set<Simplex, SimplexHash>> by_dim_;

  std::unordered_set<Simplex, SimplexHash>* level(int d);
  const std::unordered_set<Simplex, SimplexHash>* level(int d) const;
};

}  // namespace trichroma
