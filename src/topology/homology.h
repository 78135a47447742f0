#pragma once
// Simplicial homology over GF(p) for low-dimensional complexes.
//
// Used for two purposes in this reproduction:
//  1. Diagnostic reporting of output-complex shape (Betti numbers b0/b1/b2)
//     in the benchmark harness and the characterization report.
//  2. The homological impossibility engine: deciding whether a carrier-
//     respecting boundary loop is null-homologous in |Δ'(σ)| — the
//     computable, sound sufficient condition for the paper's "no continuous
//     map" (contractibility-type) obstruction (§6.2, pinwheel; 2-set
//     agreement). A loop extending over the input disk must bound over any
//     coefficient field, so "never bounds over GF(2)" certifies impossibility.

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "topology/compiled.h"
#include "topology/complex.h"

namespace trichroma {

/// A GF(2) chain of d-simplices, represented as the sorted list of simplices
/// with odd coefficient.
using Chain = std::vector<Simplex>;

/// Symmetric difference (GF(2) sum) of two chains.
Chain chain_add(const Chain& a, const Chain& b);

/// Boundary of a chain of d-simplices (d >= 1) as a chain of (d-1)-simplices.
Chain boundary(const Chain& c);

/// True iff `c` consists of 1-simplices and has zero boundary.
bool is_one_cycle(const Chain& c);

/// The chain of edges traced by a closed vertex path v0 v1 ... vk v0
/// (consecutive duplicates and backtracking edges cancel over GF(2)).
Chain loop_to_chain(const std::vector<VertexId>& closed_path);

/// Betti numbers over GF(2). b[d] = dim H_d(k; GF(2)): one pass over the
/// cells of `k` into a BoundarySpan, which gives rank ∂2, and b0 from a
/// union-find over its sorted edges.
struct BettiNumbers {
  long long b0 = 0;
  long long b1 = 0;
  long long b2 = 0;
};
BettiNumbers betti_numbers(const SimplicialComplex& k);

/// Decides whether the 1-cycle `cycle` is a GF(2) boundary in `k`, i.e.
/// whether there exists a 2-chain x with ∂x = cycle. Precondition: every
/// edge of `cycle` is in `k` and `cycle` is a cycle.
bool bounds_in(const SimplicialComplex& k, const Chain& cycle);

/// Decides whether `cycle` lies in the GF(2) span of `generators` modulo
/// boundaries of `k`, i.e. whether cycle + Σ S ⊆ B1(k) for some subset S of
/// generators. This is the workhorse of the homological obstruction test:
/// the achievable boundary-loop classes form base + span(generators), and
/// solvability requires one of them to bound.
bool bounds_modulo(const SimplicialComplex& k, const Chain& cycle,
                   const std::vector<Chain>& generators);

/// A basis of the 1-cycle space Z1 of `k` (as edge chains): the edges of
/// oriented_cycle_basis's fundamental cycles.
std::vector<Chain> cycle_basis(const SimplicialComplex& k);

// ---------------------------------------------------------------------------
// Oriented (mod-p) homology.
//
// GF(2) bounding is blind to *torsion-type* failures: a boundary loop that
// winds twice around a hole is 2·γ, which vanishes over GF(2) but not over
// GF(3). A null-homotopic loop bounds over every coefficient field, so
// "does not bound mod p" is a sound impossibility certificate for ANY prime
// p; checking p = 2 and p = 3 together catches every obstruction the
// examples in this repository can exhibit (see zoo::twisted_hourglass).
// Oriented chains carry integer coefficients on edges oriented from the
// smaller to the larger vertex id.
// ---------------------------------------------------------------------------

/// A 1-chain with integer coefficients; keys are edges (2-vertex simplices),
/// values are coefficients w.r.t. the small→large orientation. Zero
/// coefficients are absent.
using OrientedChain = std::unordered_map<Simplex, long long, SimplexHash>;

/// Adds `delta` times the oriented edge (from, to) to the chain.
void oriented_add_edge(OrientedChain& chain, VertexId from, VertexId to,
                       long long delta = 1);

/// The oriented chain traced by walking `path` (consecutive vertices).
OrientedChain oriented_path_chain(const std::vector<VertexId>& path);

/// True iff the chain's boundary (over Z) vanishes.
bool is_oriented_cycle(const OrientedChain& c);

/// The span over GF(p) of the triangle boundaries of a complex plus any
/// added generator cycles: the one elimination routine behind
/// betti_numbers and the bounds_* queries. Edges are rows, indexed by their
/// packed vertex ids; each added chain is reduced once into a sparse column
/// whose pivot (last row) no other column shares, so a membership query
/// costs one reduction of the query chain. Coefficients refer to the
/// small→large orientation. Not thread-safe to mutate; const queries are.
class BoundarySpan {
 public:
  /// The edges and triangles of a complex, sorted and deduplicated: a
  /// span's rows (edge keys, in order) and the triangles whose boundaries it
  /// reduces, in that order. Gathered once, they serve a span per prime.
  struct Cells {
    std::vector<std::uint64_t> edges;  ///< packed vertex ids, sorted
    std::vector<std::array<VertexId, 3>> triangles;  ///< sorted

    static Cells of(const SimplicialComplex& k);
    /// The closure of `facets` (duplicates and faces fine), read straight
    /// from the list: Δ(σ)'s cells from delta.facet_images(σ).
    static Cells of(const std::vector<Simplex>& facets);
  };

  /// Reduces the boundaries of the triangles of `k` over GF(p), p prime.
  BoundarySpan(const SimplicialComplex& k, long long p);
  /// The same for gathered `cells`: the routine behind every span.
  BoundarySpan(const Cells& cells, long long p);

  /// Adds `generator` to the span. A generator that leaves the complex makes
  /// every later contains() false, as in bounds_modulo_p.
  void add(const OrientedChain& generator);

  /// True iff `chain` lies in the span (false if it leaves the complex).
  bool contains(const OrientedChain& chain) const;

  /// Dimension of the span: rank ∂2 until a generator is added.
  std::size_t rank() const { return columns_.size(); }

 private:
  friend BettiNumbers betti_numbers(const SimplicialComplex& k);  // reads edges_

  struct Entry {
    std::uint32_t row;
    std::uint32_t coeff;  // in [1, p)
  };
  using Column = std::vector<Entry>;  // sorted by row
  static constexpr std::uint32_t kNoRow = 0xffffffffu;

  std::uint32_t row(VertexId a, VertexId b) const;
  bool to_column(const OrientedChain& c, Column& out) const;
  /// Reduces `v` until it is zero or its last row is no column's pivot.
  void reduce(Column& v) const;
  void insert(Column v);

  std::uint32_t p_;
  std::vector<std::uint64_t> edges_;  // packed edge keys, sorted: row order
  std::vector<std::int32_t> pivot_;   // row → column it is the pivot of, or -1
  std::vector<Column> columns_;
  bool leaves_ = false;
};

/// Decides whether `cycle` lies, modulo the prime `p`, in the span of the
/// 2-simplex boundaries of `k` plus the given generator cycles. Sound
/// impossibility certificate: a loop that extends over a disk bounds over
/// every field, so returning false for any p refutes extendability.
bool bounds_modulo_p(const SimplicialComplex& k, const OrientedChain& cycle,
                     const std::vector<OrientedChain>& generators, long long p);

/// A basis of the 1-cycle space of `k`'s 1-skeleton: the fundamental cycles
/// of the breadth-first spanning forest over its ascending neighbor rows
/// (roots in vertex order), one per non-tree edge in edge-table order, each
/// walked once around with ±1 coefficients.
std::vector<OrientedChain> oriented_cycle_basis(const CompiledComplex& k);
std::vector<OrientedChain> oriented_cycle_basis(const SimplicialComplex& k);

}  // namespace trichroma
