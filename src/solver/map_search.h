#pragma once
// Simplicial-map search: the executable direction of the Asynchronous
// Computability Theorem.
//
// A three-process task is wait-free solvable iff for some radius r there is
// a chromatic simplicial map δ : Ch^r(I) → O carried by Δ. This module
// searches for such a map by backtracking over the subdivision vertices:
// each vertex v may map to a vertex of Δ(carrier(v)) (with matching color in
// chromatic mode), and every simplex ξ must satisfy δ(ξ) ∈ Δ(carrier(ξ)).
//
// A found map IS a wait-free protocol: run r rounds of iterated immediate
// snapshot, then decide δ(final view). The protocols layer executes exactly
// this on the shared-memory simulator.
//
// Color-agnostic mode drops the color constraint, which searches for the
// "colorless" solutions consumed by the paper's Figure-7 algorithm
// (Lemma 5.3): processes land on one output simplex but possibly on
// vertices of the wrong color.

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "tasks/task.h"
#include "topology/chromatic.h"
#include "topology/compiled.h"
#include "topology/subdivision.h"

namespace trichroma {

/// Memo of Δ-image complexes keyed by carrier simplex, shared across
/// `find_decision_map` calls. Building the CSP needs Δ(carrier) for every
/// subdivision vertex/edge/triangle carrier; the distinct carriers are
/// simplices of the *base* complex, so the same handful of images recurs at
/// every radius and again for each probe mode (chromatic / color-agnostic
/// share Δ). Images are interned as *compiled* snapshots built from
/// `delta.facet_images(carrier)` (topology/compiled.h): candidate
/// enumeration walks the dense vertex table and the constraint compilers
/// answer membership from the flat edge/triangle tables instead of hashing
/// Simplex keys. One cache per carrier map: keys are input simplices, so
/// reusing a cache across different Δs would alias. Returned pointers stay
/// valid for the cache's lifetime.
///
/// The cache also memoizes the *constraint tables* derived from the images.
/// A CSP variable's candidate list is fully determined by
/// (Δ(carrier(v)), color(v), chromatic?), so every subdivision edge with the
/// same (edge image, endpoint images, endpoint colors) triple compiles to
/// the same pair of per-value compatibility bitmask rows, and every
/// subdivision triangle with the same (triangle image, member images, member
/// colors) class compiles to the same three completion tables — at radius r
/// almost all of the 13^r-growth edge/triangle population collapses onto a
/// handful of classes, and the same classes recur at every radius. Keys are
/// the interned image pointers, which is why the mask memos live here: they
/// are only valid alongside the image memo that keeps those pointers stable.
/// All mask/table rows are stored on one internal monotonic arena, so CSP
/// compilation only touches the allocator on a class miss.
///
/// Not thread-safe: one search (one task) owns a cache at a time.
class DeltaImageCache {
 public:
  using Mask = std::uint64_t;

  const CompiledComplex* image_of(const CarrierMap& delta, const Simplex& carrier);

  /// Eagerly compiles Δ(carrier), in carrier order, for every carrier in
  /// `carriers` not already cached (artifact preloads and prior entries are
  /// never clobbered), so searches start hot instead of faulting images in
  /// one by one. Every populated entry is marked warm exactly like
  /// `preload`: its first `image_of` touch is charged as the miss a lazy
  /// cold run would have paid, and entries never touched never count, so
  /// hit/miss counters are byte-identical to the lazy path. The engines
  /// pass the base complex's canonical simplex list — the carriers of every
  /// subdivision cell at every radius. The third parameter is ignored; it
  /// stays declared only because the end-to-end benchmark (perf/) passes
  /// it.
  void populate(const CarrierMap& delta, const std::vector<Simplex>& carriers,
                int /*threads*/ = 1);

  /// Inserts a pre-compiled image for `carrier` built from its facet list
  /// (a stored `delta.images` artifact row, io/store.h). The entry is
  /// marked *warm*: its first `image_of` lookup still counts as a miss, so
  /// hit/miss counters — which feed deterministic reports — match a cold
  /// run's exactly. No-op if the carrier is already cached. The facets must
  /// be exactly `delta.facet_images(carrier)` for the cache's carrier map,
  /// so the entry equals the one `image_of` would compile.
  void preload(const Simplex& carrier, const std::vector<Simplex>& facets);

  /// Warm entries not yet touched by `image_of` (0 after any full search).
  std::size_t warm_remaining() const { return warm_.size(); }

  std::size_t size() const { return cache_.size(); }
  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }

  /// Identity of one compiled edge constraint (see class comment). Colors
  /// are the endpoints' colors in chromatic mode, kNoColor otherwise.
  struct EdgeClass {
    const CompiledComplex* allowed;  // Δ(carrier(edge))
    const CompiledComplex* image_a;  // Δ(carrier(a))
    const CompiledComplex* image_b;  // Δ(carrier(b))
    Color color_a;
    Color color_b;

    bool operator==(const EdgeClass&) const = default;
  };
  /// Per-value compatibility bitmasks for one edge class: `ab[i]` masks the
  /// b-values compatible with a-value i, `ba[j]` vice versa (rows live on
  /// the cache arena). `skip_ab` bit i is set when row `ab[i]` permits b's
  /// whole domain — assigning a := i can never prune b, so propagation may
  /// skip the row load entirely; `skip_ba` mirrors it.
  struct EdgeMasks {
    const Mask* ab = nullptr;
    const Mask* ba = nullptr;
    Mask skip_ab = 0;
    Mask skip_ba = 0;
    std::uint32_t na = 0;
    std::uint32_t nb = 0;
  };

  /// Memoized masks for `key`, compiled from the candidate value lists on a
  /// miss. Exactly one lookup per subdivision edge, so
  /// edge_mask_hits() + edge_mask_misses() counts edges. Pointers stay
  /// valid for the cache's lifetime.
  const EdgeMasks* edge_masks(const EdgeClass& key, const VertexId* vals_a,
                              std::uint32_t na, const VertexId* vals_b,
                              std::uint32_t nb);
  std::size_t edge_mask_hits() const { return mask_hits_; }
  std::size_t edge_mask_misses() const { return masks_.size(); }

  /// Identity of one compiled triangle constraint: the face image plus the
  /// three members' (image, color) pairs in ascending variable order.
  struct TriClass {
    const CompiledComplex* allowed;  // Δ(carrier(triangle))
    std::array<const CompiledComplex*, 3> image;
    std::array<Color, 3> color;

    bool operator==(const TriClass&) const = default;
  };
  /// Completion tables for one triangle class. With members (0,1,2) in
  /// ascending variable order, `comp[p]` is a flat `n[q1] * n[q2]` table
  /// over the *other* two members q1 < q2; entry `comp[p][j1 * n[q2] + j2]`
  /// masks the p-values that close a valid Δ-image face with those two
  /// assignments. Propagation of a triangle with one unassigned member is a
  /// single table load + AND.
  struct TriTables {
    std::array<const Mask*, 3> comp = {nullptr, nullptr, nullptr};
    std::array<std::uint32_t, 3> n = {0, 0, 0};
  };

  /// Memoized completion tables for `key`, compiled from the three
  /// candidate value lists on a miss. Pointers stay valid for the cache's
  /// lifetime.
  const TriTables* tri_tables(const TriClass& key,
                              const std::array<const VertexId*, 3>& vals,
                              const std::array<std::uint32_t, 3>& n);

 private:
  struct EdgeClassHash {
    std::size_t operator()(const EdgeClass& k) const noexcept;
  };
  struct TriClassHash {
    std::size_t operator()(const TriClass& k) const noexcept;
  };

  std::unordered_map<Simplex, std::shared_ptr<const CompiledComplex>, SimplexHash>
      cache_;
  /// Preloaded entries whose first lookup is still owed a miss count.
  std::unordered_set<Simplex, SimplexHash> warm_;
  std::unordered_map<EdgeClass, EdgeMasks, EdgeClassHash> masks_;
  std::unordered_map<TriClass, TriTables, TriClassHash> tris_;
  /// Backing store for all mask rows and completion tables; released with
  /// the cache, never per-row.
  std::pmr::monotonic_buffer_resource mask_arena_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  mutable std::size_t mask_hits_ = 0;
};

struct MapSearchOptions {
  bool chromatic = true;
  /// Backtracking-step budget; searches stopping on the cap report
  /// exhausted = false.
  std::size_t node_cap = 20'000'000;
  /// Minimum-remaining-values variable selection (default). Disabling falls
  /// back to static order — kept as an ablation knob (see bench_ablation);
  /// both orders are complete, MRV is typically orders of magnitude faster.
  bool dynamic_ordering = true;
  /// Ignored: every search runs on the calling thread. Declared only
  /// because the end-to-end benchmark (perf/) still sets it.
  int threads = 1;
  /// Optional cross-call Δ-image cache (see DeltaImageCache). Borrowed, may
  /// be null (a per-call cache is used); must be dedicated to `task.delta`.
  DeltaImageCache* image_cache = nullptr;
};

struct MapSearchResult {
  bool found = false;
  bool exhausted = true;  ///< meaningful when !found: whole space explored
  /// Some subdivision vertex had more than 64 candidate values — the
  /// word-parallel domains cannot represent the instance, so nothing was
  /// searched. Always reported with exhausted = false: this is a
  /// representation limit, never evidence of unsolvability.
  bool domain_overflow = false;
  VertexMap map;           ///< the decision map, when found
  /// Backtracking nodes visited (canonical prefix accounting, see
  /// map_search.cpp).
  std::size_t nodes_explored = 0;
  /// Deterministic distribution of the CSP's per-variable candidate-list
  /// sizes: counts per base-2 log bucket (obs::Histogram::bucket_index
  /// boundaries — bucket i holds sizes <= 2^i), trimmed after the last
  /// non-zero bucket, plus the matching sample count and size sum. A pure
  /// function of the instance, so engines fold it into the deterministic
  /// report fields. Empty when the build stopped before gathering domains
  /// (empty complex).
  std::vector<std::uint64_t> domain_size_hist;
  std::uint64_t domain_size_count = 0;
  std::uint64_t domain_size_sum = 0;
};

/// Searches for a simplicial map from `domain.complex` to `task.output`
/// carried by `task.delta` (carriers interpreted in `task.input`).
MapSearchResult find_decision_map(const VertexPool& pool,
                                  const SubdividedComplex& domain, const Task& task,
                                  const MapSearchOptions& options);

/// Independent validation that `map` is simplicial, carried by Δ, and (in
/// chromatic mode) color-preserving. Used by tests and by the protocol
/// layer before executing a witness.
bool validate_decision_map(const VertexPool& pool, const SubdividedComplex& domain,
                           const Task& task, const VertexMap& map, bool chromatic);

}  // namespace trichroma
