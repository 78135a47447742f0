#pragma once
// CompiledComplex: a frozen, flat snapshot of a SimplicialComplex for the
// hot solver paths.
//
// SimplicialComplex is the mutable authoring API: per-dimension hash sets of
// heap-allocated Simplex keys, ideal for closure-complete editing but poor
// for the tight loops of the verdict pipeline (decision-map CSP compilation,
// LAP detection, link-connectivity checks), which only ever *read* a complex
// that has stopped changing. compile() freezes such a complex into:
//
//   - a dense int32 vertex renumbering ("locals"), sorted by raw VertexId,
//     so local order == the deterministic global order every consumer
//     already iterates in;
//   - a sorted flat edge table of packed (u,v) local pairs with binary
//     lookup, plus CSR vertex->edge, vertex->triangle, and vertex->neighbor
//     incidence arrays;
//   - per-vertex *link adjacency bitmasks*: the paper fixes dimension <= 2,
//     so the link of a vertex is just a graph over its neighbor row, stored
//     as ceil(deg/64) words per neighbor — link component counting becomes
//     a BFS over machine words instead of building a SimplicialComplex;
//   - flat sorted tables for any dimension >= 3 cells (n > 3 process
//     tasks), so contains() stays exact on every input;
//   - a monotonic arena (std::pmr) owning all of the above, so teardown is
//     O(1) chunk release rather than per-simplex destruction.
//
// The snapshot is immutable and non-movable (the arena pins addresses);
// share it via the shared_ptr the factory returns. Debug builds can verify
// a snapshot against its source with debug_verify_against.

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <utility>
#include <vector>

#include "topology/complex.h"
#include "topology/simplex.h"
#include "topology/vertex.h"

namespace trichroma {

class CompiledComplex {
 public:
  /// Dense vertex index into the snapshot; kAbsent marks "not a vertex".
  using Local = std::int32_t;
  static constexpr Local kAbsent = -1;

  CompiledComplex(const CompiledComplex&) = delete;
  CompiledComplex& operator=(const CompiledComplex&) = delete;

  /// Freezes `k`. The snapshot is independent of `k` afterwards.
  static std::shared_ptr<const CompiledComplex> compile(const SimplicialComplex& k);

  /// Streaming construction: feed simplices (duplicates fine, closure not
  /// required), then finish(). Lets producers like subdivide_once emit
  /// facets directly into the flat form without a second pass over hash
  /// sets.
  class Builder {
   public:
    /// Adds `s` and (implicitly) every face of it.
    void add(const Simplex& s);
    /// Adds `s` alone; the caller promises the stream is closure-complete
    /// (used by compile(), whose source already stores every face).
    void add_closed(const Simplex& s);
    std::shared_ptr<const CompiledComplex> finish();

   private:
    // Scratch cells by dimension, as raw vertex ids; deduplicated at finish.
    std::vector<std::uint32_t> verts_;
    std::vector<std::uint64_t> edges_;  // packed (raw_u << 32) | raw_v, u < v
    std::vector<std::array<std::uint32_t, 3>> tris_;
    std::vector<std::vector<std::uint32_t>> high_;  // high_[i]: dim 3+i cells, flat
  };

  // --- vertices -----------------------------------------------------------

  std::size_t num_vertices() const { return verts_.size(); }
  /// Global id of local index `i` (locals are sorted by raw id).
  VertexId vertex(Local i) const { return verts_[static_cast<std::size_t>(i)]; }
  /// Local index of `v`, or kAbsent.
  Local local(VertexId v) const {
    const std::uint32_t r = raw(v);
    return r < dense_.size() ? dense_[r] : kAbsent;
  }
  bool contains_vertex(VertexId v) const { return local(v) != kAbsent; }

  // --- edges --------------------------------------------------------------

  std::size_t num_edges() const { return edge_keys_.size(); }
  std::pair<Local, Local> edge(std::size_t e) const {
    const std::uint64_t k = edge_keys_[e];
    return {static_cast<Local>(k >> 32),
            static_cast<Local>(k & 0xffffffffu)};
  }
  /// Index into the edge table, or -1. Requires u < v (locals).
  std::ptrdiff_t edge_index(Local u, Local v) const;
  bool contains_edge(Local u, Local v) const { return edge_index(u, v) >= 0; }

  // --- triangles ----------------------------------------------------------

  std::size_t num_triangles() const { return tri_verts_.size() / 3; }
  std::array<Local, 3> triangle(std::size_t t) const {
    return {tri_verts_[3 * t], tri_verts_[3 * t + 1], tri_verts_[3 * t + 2]};
  }
  bool contains_triangle(Local a, Local b, Local c) const;

  // --- generic cells ------------------------------------------------------

  int dimension() const { return dimension_; }
  std::size_t count(int d) const;
  std::size_t total_count() const;
  /// Flat vertex array of the d-cells, stride d + 1, cells sorted
  /// lexicographically; d >= 2. Empty when there are none.
  const Local* cells_flat(int d) const;
  /// Exact membership test for any simplex (locals resolved internally).
  bool contains(const Simplex& s) const;

  // --- incidence (CSR rows) -----------------------------------------------

  std::size_t degree(Local v) const {
    const auto i = static_cast<std::size_t>(v);
    return nbr_off_[i + 1] - nbr_off_[i];
  }
  /// Neighbors of `v` as locals, sorted ascending.
  const Local* neighbors(Local v) const { return nbr_.data() + nbr_off_[static_cast<std::size_t>(v)]; }
  /// Edge indices incident to `v`, ascending.
  const std::uint32_t* edges_of(Local v) const { return v2e_.data() + v2e_off_[static_cast<std::size_t>(v)]; }
  std::size_t edges_of_count(Local v) const {
    const auto i = static_cast<std::size_t>(v);
    return v2e_off_[i + 1] - v2e_off_[i];
  }
  /// Triangle indices incident to `v`, ascending.
  const std::uint32_t* triangles_of(Local v) const { return v2t_.data() + v2t_off_[static_cast<std::size_t>(v)]; }
  std::size_t triangles_of_count(Local v) const {
    const auto i = static_cast<std::size_t>(v);
    return v2t_off_[i + 1] - v2t_off_[i];
  }
  /// Number of d-simplices containing vertex(v) (the open star).
  std::size_t star_count(Local v, int d) const;

  // --- links (dimension <= 2 structure) -----------------------------------

  /// True iff lk(v) is the empty complex (v is isolated).
  bool link_empty(Local v) const { return degree(v) == 0; }
  /// Number of connected components of lk(v); 0 when the link is empty.
  std::size_t link_component_count(Local v) const;
  /// Components of lk(v) in the format of graph.h's connected_components:
  /// each a sorted vector of global ids, components ordered by smallest id.
  std::vector<std::vector<VertexId>> link_components(Local v) const;
  /// True iff lk(v) is non-empty and connected.
  bool link_connected(Local v) const {
    return degree(v) > 0 && link_component_count(v) == 1;
  }

  // --- whole-complex queries ----------------------------------------------

  /// Connected components of the 1-skeleton (isolated vertices count).
  std::size_t component_count() const;
  /// Maximal simplices, sorted — matches SimplicialComplex::facets().
  std::vector<Simplex> facets() const;

  /// Asserts (debug builds) that this snapshot stores exactly the simplices
  /// of `k`. No-op under NDEBUG.
  void debug_verify_against(const SimplicialComplex& k) const;

 private:
  friend class Builder;
  CompiledComplex() = default;

  /// Words per neighbor-row bitset of `v`: ceil(degree / 64).
  std::size_t link_words_per_row(Local v) const { return (degree(v) + 63) / 64; }
  const std::uint64_t* link_row(Local v, std::size_t position) const {
    return link_words_.data() + link_off_[static_cast<std::size_t>(v)] +
           position * link_words_per_row(v);
  }

  // All storage below lives in (or is sized once and never reallocates out
  // of) the arena; declaration order matters: the arena must outlive the
  // containers.
  std::pmr::monotonic_buffer_resource arena_;

  std::pmr::vector<VertexId> verts_{&arena_};      // local -> global, sorted
  std::pmr::vector<Local> dense_{&arena_};         // raw(global) -> local
  std::pmr::vector<std::uint64_t> edge_keys_{&arena_};  // sorted (u<<32)|v
  std::pmr::vector<Local> tri_verts_{&arena_};     // stride 3, sorted triples

  // CSR incidence.
  std::pmr::vector<std::uint32_t> nbr_off_{&arena_};
  std::pmr::vector<Local> nbr_{&arena_};
  std::pmr::vector<std::uint32_t> v2e_off_{&arena_};
  std::pmr::vector<std::uint32_t> v2e_{&arena_};
  std::pmr::vector<std::uint32_t> v2t_off_{&arena_};
  std::pmr::vector<std::uint32_t> v2t_{&arena_};

  // Link adjacency bitsets: for vertex v with degree g and w = ceil(g/64),
  // positions p in [0, g) own words link_words_[link_off_[v] + p*w, ... +w):
  // bit q set iff neighbors p and q are joined in lk(v) (share a triangle
  // with v).
  std::pmr::vector<std::size_t> link_off_{&arena_};
  std::pmr::vector<std::uint64_t> link_words_{&arena_};

  // Cells of dimension >= 3 (n > 3 process tasks): flat sorted tables.
  struct HighTable {
    std::size_t offset = 0;  // into high_flat_
    std::size_t cells = 0;
  };
  std::vector<HighTable> high_;  // high_[i] describes dim 3+i
  std::pmr::vector<Local> high_flat_{&arena_};

  int dimension_ = -1;
};

}  // namespace trichroma
