#pragma once
// The standard chromatic subdivision Ch(K) and its iterates Ch^r(K).
//
// Operationally, Ch(σ) is the complex of one-round immediate-snapshot
// executions by the processes of σ: its facets correspond to the *ordered
// set partitions* (B1, ..., Bk) of σ's vertices — processes in block Bj go
// "together", and each obtains the view B1 ∪ ... ∪ Bj. A subdivision vertex
// is therefore a pair (color, view), where the view is a face of σ
// containing the process's own vertex. Herlihy–Shavit show Ch(σ) is a
// chromatic subdivision of σ; this file builds it combinatorially, and the
// runtime simulator reproduces it operationally (cross-checked in tests).
//
// Every subdivision vertex tracks its *carrier*: the minimal simplex of the
// base complex whose geometric realization contains it. The carrier is what
// connects subdivisions to carrier maps: a simplicial map f from Ch^r(I) is
// "carried by Δ" iff f(ξ) ∈ Δ(carrier(ξ)) for every simplex ξ.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "topology/compiled.h"
#include "topology/complex.h"
#include "topology/vertex.h"

namespace trichroma {

/// A complex together with per-vertex carriers into some fixed base complex.
struct SubdividedComplex {
  SimplicialComplex complex;
  /// carrier[v] = minimal base simplex containing v.
  std::unordered_map<VertexId, Simplex, VertexIdHash> carrier;
  /// Flat form of `complex` (see topology/compiled.h). Every constructor —
  /// identity_subdivision, subdivide_once, chromatic_subdivision,
  /// SubdivisionLadder and the store's io::load_ladder_levels — sets it.
  std::shared_ptr<const CompiledComplex> compiled;

  /// Carrier of a simplex: the union of its vertices' carriers.
  Simplex carrier_of(const Simplex& s) const;
};

/// The pool encoding of a Ch vertex: (color, ("view", {m, ...})), one member
/// m = of_int(raw id) per vertex the view saw. subdivide_once, the store's
/// ladder loader and the IIS and Figure-7 processes all intern through it,
/// so a combinatorial and an operational view of one execution are the
/// same vertex. Constructing one interns the "view" tag: each caller
/// constructs it where that tag belongs in its interning sequence, and
/// interns members itself, so value ids, vertex ids and warm-start pool
/// state follow the caller's order.
class ViewInterner {
 public:
  explicit ViewInterner(VertexPool& pool)
      : pool_(pool), tag_(pool.values().of_string("view")) {}

  /// The member value of a seen vertex.
  ValueId member(VertexId seen) const {
    return pool_.values().of_int(static_cast<std::int64_t>(raw(seen)));
  }

  /// Interns the vertex of `color` whose view holds `members`.
  VertexId vertex(Color color, std::vector<ValueId> members) const {
    ValuePool& values = pool_.values();
    return pool_.vertex(
        color, values.of_tuple({tag_, values.of_set(std::move(members))}));
  }

 private:
  VertexPool& pool_;
  ValueId tag_;
};

/// The vertices a Ch vertex's view saw (decodes ViewInterner's encoding),
/// in member value order.
std::vector<VertexId> view_of(const VertexPool& pool, VertexId v);

/// The identity subdivision (r = 0): each vertex is its own carrier.
SubdividedComplex identity_subdivision(const SimplicialComplex& base);

/// One round of standard chromatic subdivision applied to `prev`, with
/// carriers composed so they still point into the original base complex.
/// Every simplex of `prev.complex` must be chromatic.
///
/// Stamps the precomputed Ch template (`ch_template`) onto every simplex of
/// `prev` in canonical order, so vertex ids and pool state are a function
/// of `prev`'s content — warm-started ladders (io/store.h) extend to the
/// pool state a cold build reaches.
SubdividedComplex subdivide_once(VertexPool& pool,
                                 const SubdividedComplex& prev);

/// Ch^r(base): `rounds` iterations of the standard chromatic subdivision.
SubdividedComplex chromatic_subdivision(VertexPool& pool, const SimplicialComplex& base,
                                        int rounds);

/// Compiled combinatorics of Ch(σ) for an abstract m-vertex simplex: the
/// standard chromatic subdivision is fixed combinatorics (Kozlov), so it is
/// derived once per dimension and *stamped* onto every concrete simplex
/// instead of re-enumerating ordered set partitions per simplex per task.
/// Positions index σ's vertices in ascending VertexId order; a subdivision
/// vertex is the pair (position, view) with the view a bitmask over
/// positions. `uniq` lists the distinct pairs in the exact first-occurrence
/// order of the ordered-partition enumeration — interning them in this
/// order reproduces the pool state of a per-simplex enumeration (the oracle
/// in tests/topology_template_test.cpp) bit for bit.
struct ChTemplate {
  struct TVert {
    std::uint8_t pos;   ///< whose vertex (position in σ, ascending ids)
    std::uint8_t view;  ///< bitmask over positions: B1 ∪ ... ∪ Bj
  };
  std::size_t n = 0;            ///< σ's vertex count
  std::vector<TVert> uniq;      ///< distinct vertices, first-occurrence order
  /// Facet slots, `num_facets × n`, each an index into `uniq`; facet f's
  /// vertices are slots[f*n .. f*n+n) in partition block order.
  std::vector<std::uint16_t> slots;
  std::size_t num_facets = 0;   ///< the ordered-Bell number of n
};

/// Derives the template for an m-vertex simplex (exposed for tests).
ChTemplate build_ch_template(std::size_t n);

/// Memoized template per dimension; throws std::length_error beyond 8
/// vertices.
const ChTemplate& ch_template(std::size_t n);

/// Incremental cache of the subdivision tower Ch^0, Ch^1, Ch^2, ... of one
/// base complex. Every cached level carries its CompiledComplex snapshot,
/// so the solver's hot paths (CSP compilation, LAP scans) get the flat form
/// for free alongside the hash-set form. `chromatic_subdivision(pool, base, r)` recomputes every
/// round from scratch; callers probing a radius ladder (the solvability
/// engine tries r = 0, 1, 2, ... up to three times per task) instead ask a
/// ladder, which derives Ch^{r+1} from the memoized Ch^r by a single
/// `subdivide_once` step. Because subdivision vertices are interned in the
/// shared pool by (color, view), the ladder's Ch^r is facet-for-facet equal
/// to a cold `chromatic_subdivision(pool, base, r)`.
///
/// The ladder borrows the pool; it must not outlive it. Not thread-safe:
/// `at` both grows the memo and interns vertices in the pool.
///
/// Levels are held by shared_ptr so a caller can keep a level alive past the
/// ladder (`share`) — a found decision map's witness domain outlives the
/// probe that produced it — without deep-copying the complex.
class SubdivisionLadder {
 public:
  SubdivisionLadder(VertexPool& pool, SimplicialComplex base)
      : pool_(pool), base_(std::move(base)) {}

  /// Ch^r(base). References stay valid as the ladder grows.
  const SubdividedComplex& at(int r) { return *share(r); }

  /// Ch^r(base) as a shareable handle; the level stays alive as long as any
  /// handle does.
  std::shared_ptr<const SubdividedComplex> share(int r);

  /// Replaces the memoized tower with externally materialized levels (warm
  /// start from a stored artifact, io/store.h). `levels[r]` must be
  /// Ch^r(base) with vertices already interned in `pool` in the same order
  /// a cold build would intern them; `share` then extends from the deepest
  /// seeded level and — because `subdivide_once` enumerates canonically —
  /// reaches exactly the pool state and levels of a cold tower. No-op on an
  /// empty vector.
  void seed(std::vector<SubdividedComplex> levels);

  /// Highest radius memoized so far; -1 before the first `at` call.
  int max_computed() const { return static_cast<int>(levels_.size()) - 1; }

 private:
  VertexPool& pool_;
  SimplicialComplex base_;
  // levels_[r] == Ch^r(base_)
  std::deque<std::shared_ptr<const SubdividedComplex>> levels_;
};

}  // namespace trichroma
