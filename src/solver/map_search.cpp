#include "solver/map_search.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <memory_resource>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace trichroma {

namespace {

// Registry counters for the cache and search layers (see obs/metrics.h for
// the naming scheme). Looked up once; the references stay valid forever.
obs::Counter& image_hit_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("cache.image.hits");
  return c;
}
obs::Counter& image_miss_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("cache.image.misses");
  return c;
}
obs::Counter& mask_hit_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("cache.edge_masks.hits");
  return c;
}
obs::Counter& mask_miss_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("cache.edge_masks.misses");
  return c;
}
obs::Counter& tri_hit_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("cache.tri_tables.hits");
  return c;
}
obs::Counter& tri_miss_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("cache.tri_tables.misses");
  return c;
}
// Candidate-pool sizes of compiled Δ-images, one record per charged miss
// (cold compiles and first warm touches — the same accounting the hit/miss
// counters use, so the distribution is seeding-independent).
obs::Histogram& image_vertices_histogram() {
  static obs::Histogram& h =
      obs::MetricsRegistry::global().histogram("cache.delta.image_vertices");
  return h;
}
// Binary rows proven unable to prune, skipped before the row load. Flushed
// from the small-CSP run, the prefix expansion and the canonical walk.
obs::Counter& fastpath_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "search.propagate.fastpath_skips");
  return c;
}
// Bytes reserved on search arenas at CSP compilation, the small-CSP solver
// and the expansion scratch solvers.
obs::Counter& arena_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "search.arena.bytes_reserved");
  return c;
}

constexpr std::size_t kMaxDomain = 64;

/// POD array carved from a monotonic arena (uninitialized). `bytes`, when
/// given, accumulates the reservation for the arena counter.
template <typename T>
T* arena_array(std::pmr::monotonic_buffer_resource& arena, std::size_t count,
               std::size_t* bytes = nullptr) {
  if (count == 0) return nullptr;
  const std::size_t size = count * sizeof(T);
  if (bytes != nullptr) *bytes += size;
  return static_cast<T*>(arena.allocate(size, alignof(T)));
}

}  // namespace

const CompiledComplex* DeltaImageCache::image_of(const CarrierMap& delta,
                                                 const Simplex& carrier) {
  auto it = cache_.find(carrier);
  if (it != cache_.end()) {
    // A warm (preloaded) entry's first touch is charged as the miss the
    // cold run would have paid, so counters stay seeded-vs-cold identical.
    // The empty() guard keeps the hit fast path free of a second hash on
    // cold runs, where the warm set never has members.
    if (!warm_.empty()) {
      const auto warm = warm_.find(carrier);
      if (warm != warm_.end()) {
        warm_.erase(warm);
        ++misses_;
        image_miss_counter().add();
        image_vertices_histogram().record(it->second->num_vertices());
        return it->second.get();
      }
    }
    ++hits_;
    image_hit_counter().add();
    return it->second.get();
  }
  ++misses_;
  image_miss_counter().add();
  auto owned = CompiledComplex::of_facets(delta.facet_images(carrier));
  const CompiledComplex* ptr = owned.get();
  image_vertices_histogram().record(ptr->num_vertices());
  cache_.emplace(carrier, std::move(owned));
  return ptr;
}

void DeltaImageCache::preload(const Simplex& carrier,
                              const std::vector<Simplex>& facets) {
  if (cache_.count(carrier) != 0) return;
  cache_.emplace(carrier, CompiledComplex::of_facets(facets));
  warm_.insert(carrier);
}

void DeltaImageCache::populate(const CarrierMap& delta,
                               const std::vector<Simplex>& carriers, int) {
  TRI_SPAN("ladder/populate");
  for (const Simplex& c : carriers) {
    if (c.empty() || cache_.count(c) != 0) continue;
    // Warm marking keeps the hit/miss accounting as-if-cold (see image_of).
    cache_.emplace(c, CompiledComplex::of_facets(delta.facet_images(c)));
    warm_.insert(c);
  }
}

std::size_t DeltaImageCache::EdgeClassHash::operator()(
    const EdgeClass& k) const noexcept {
  std::size_t h = std::hash<const void*>{}(k.allowed);
  auto mix = [&h](std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(std::hash<const void*>{}(k.image_a));
  mix(std::hash<const void*>{}(k.image_b));
  mix(static_cast<std::size_t>(static_cast<std::uint16_t>(k.color_a)));
  mix(static_cast<std::size_t>(static_cast<std::uint16_t>(k.color_b)));
  return h;
}

std::size_t DeltaImageCache::TriClassHash::operator()(
    const TriClass& k) const noexcept {
  std::size_t h = std::hash<const void*>{}(k.allowed);
  auto mix = [&h](std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  for (int i = 0; i < 3; ++i) {
    mix(std::hash<const void*>{}(k.image[static_cast<std::size_t>(i)]));
    mix(static_cast<std::size_t>(
        static_cast<std::uint16_t>(k.color[static_cast<std::size_t>(i)])));
  }
  return h;
}

const DeltaImageCache::EdgeMasks* DeltaImageCache::edge_masks(
    const EdgeClass& key, const VertexId* vals_a, std::uint32_t na,
    const VertexId* vals_b, std::uint32_t nb) {
  auto it = masks_.find(key);
  if (it != masks_.end()) {
    ++mask_hits_;
    mask_hit_counter().add();
    return &it->second;
  }
  mask_miss_counter().add();
  const CompiledComplex& allowed = *key.allowed;
  Mask* ab = arena_array<Mask>(mask_arena_, na);
  Mask* ba = arena_array<Mask>(mask_arena_, nb);
  std::fill_n(ab, na, Mask{0});
  std::fill_n(ba, nb, Mask{0});
  std::array<CompiledComplex::Local, kMaxDomain> lb;
  for (std::uint32_t j = 0; j < nb; ++j) lb[j] = allowed.local(vals_b[j]);
  for (std::uint32_t i = 0; i < na; ++i) {
    const CompiledComplex::Local ia = allowed.local(vals_a[i]);
    if (ia == CompiledComplex::kAbsent) continue;
    for (std::uint32_t j = 0; j < nb; ++j) {
      // The image may degenerate to a vertex (color-agnostic mode); both
      // cases must be faces of Δ(carrier(edge)).
      const CompiledComplex::Local ib = lb[j];
      if (ib == CompiledComplex::kAbsent) continue;
      const bool face = ia == ib || (ia < ib ? allowed.contains_edge(ia, ib)
                                             : allowed.contains_edge(ib, ia));
      if (face) {
        ab[i] |= Mask{1} << j;
        ba[j] |= Mask{1} << i;
      }
    }
  }
  EdgeMasks m;
  m.ab = ab;
  m.ba = ba;
  m.na = na;
  m.nb = nb;
  const Mask full_a = na == kMaxDomain ? ~Mask{0} : (Mask{1} << na) - 1;
  const Mask full_b = nb == kMaxDomain ? ~Mask{0} : (Mask{1} << nb) - 1;
  for (std::uint32_t i = 0; i < na; ++i) {
    if (ab[i] == full_b) m.skip_ab |= Mask{1} << i;
  }
  for (std::uint32_t j = 0; j < nb; ++j) {
    if (ba[j] == full_a) m.skip_ba |= Mask{1} << j;
  }
  return &masks_.emplace(key, m).first->second;
}

const DeltaImageCache::TriTables* DeltaImageCache::tri_tables(
    const TriClass& key, const std::array<const VertexId*, 3>& vals,
    const std::array<std::uint32_t, 3>& n) {
  auto it = tris_.find(key);
  if (it != tris_.end()) {
    tri_hit_counter().add();
    return &it->second;
  }
  tri_miss_counter().add();
  const CompiledComplex& allowed = *key.allowed;
  std::array<std::array<CompiledComplex::Local, kMaxDomain>, 3> loc;
  for (std::size_t p = 0; p < 3; ++p) {
    for (std::uint32_t j = 0; j < n[p]; ++j) {
      loc[p][j] = allowed.local(vals[p][j]);
    }
  }
  TriTables t;
  t.n = n;
  std::array<Mask*, 3> comp;
  const std::array<std::size_t, 3> cells = {std::size_t{n[1]} * n[2],
                                            std::size_t{n[0]} * n[2],
                                            std::size_t{n[0]} * n[1]};
  for (std::size_t p = 0; p < 3; ++p) {
    comp[p] = arena_array<Mask>(mask_arena_, cells[p]);
    std::fill_n(comp[p], cells[p], Mask{0});
    t.comp[p] = comp[p];
  }
  // Enumerate value triples once; a face sets one bit in each of the three
  // completion tables. Values may collide on the same image vertex (or be
  // absent from the face image entirely), so the triple is deduplicated to
  // the simplex it actually spans — mirroring the Simplex-normalizing
  // membership test this table replaces.
  for (std::uint32_t j0 = 0; j0 < n[0]; ++j0) {
    const CompiledComplex::Local u0 = loc[0][j0];
    if (u0 == CompiledComplex::kAbsent) continue;
    for (std::uint32_t j1 = 0; j1 < n[1]; ++j1) {
      const CompiledComplex::Local u1 = loc[1][j1];
      if (u1 == CompiledComplex::kAbsent) continue;
      // If the first two members don't span a face, no third value can
      // complete one.
      if (u0 != u1 && !(u0 < u1 ? allowed.contains_edge(u0, u1)
                                : allowed.contains_edge(u1, u0))) {
        continue;
      }
      for (std::uint32_t j2 = 0; j2 < n[2]; ++j2) {
        const CompiledComplex::Local u2 = loc[2][j2];
        if (u2 == CompiledComplex::kAbsent) continue;
        bool face;
        if (u2 == u0 || u2 == u1) {
          face = true;  // degenerates to {u0, u1}, already known to be a face
        } else if (u0 == u1) {
          face = u0 < u2 ? allowed.contains_edge(u0, u2)
                         : allowed.contains_edge(u2, u0);
        } else {
          CompiledComplex::Local a = u0, b = u1, c = u2;
          if (a > b) std::swap(a, b);
          if (b > c) std::swap(b, c);
          if (a > b) std::swap(a, b);
          face = allowed.contains_triangle(a, b, c);
        }
        if (!face) continue;
        comp[0][std::size_t{j1} * n[2] + j2] |= Mask{1} << j0;
        comp[1][std::size_t{j0} * n[2] + j2] |= Mask{1} << j1;
        comp[2][std::size_t{j0} * n[1] + j1] |= Mask{1} << j2;
      }
    }
  }
  return &tris_.emplace(key, t).first->second;
}

namespace {

// The decision-map search is a finite CSP:
//   variables   = vertices of the subdivided input complex,
//   domains     = vertices of Δ(carrier(v)) (own color only, if chromatic),
//   constraints = for every simplex ξ, the image must be a simplex of
//                 Δ(carrier(ξ)).
// Edge constraints are compiled to per-value compatibility bitmasks and
// propagated by forward checking; triangle constraints are compiled to
// class-shared completion tables, so filtering the single unassigned member
// is one table load + AND. All CSP tables and all per-solver state (domains,
// trail, undo marks) live on monotonic arenas — the inner search never
// touches the allocator. Variables are picked dynamically by minimum
// remaining values. The search is systematic, so a negative answer with
// `exhausted = true` is a proof of non-existence at this radius.
//
// CSPs with kMinVariablesForSplit or more variables are searched by
// decision prefixes: the top levels of the (MRV-ordered) search tree are
// expanded breadth-first into a fixed set of ~kSplitTargetJobs disjoint
// partial assignments, sorted into DFS order, and a canonical walk then
// searches them one after another under one global node counter. This
// canonical prefix accounting defines `nodes_explored` and the point where
// the node cap stops a search (see canonical_walk).
//
// Determinism of the word-parallel propagation: every shrink is a monotone
// intersection, so the fixed point reached by a propagate() call — and
// whether any domain wipes out — is independent of the order constraints
// fire in; a failed node's partial domains are discarded wholesale by
// undo_to_mark. Restructuring the constraint loops (tables instead of
// per-candidate Simplex tests, skip masks eliding no-op rows) therefore
// cannot change MRV choices, the visit order, or nodes_explored.

using Mask = std::uint64_t;  // domains in this codebase are small (< 64)

struct Csp {
  std::size_t n = 0;  // number of variables
  // Keeps the compiled domain snapshot (and with it the triangle incidence
  // rows propagate() reads) alive for the CSP's lifetime.
  std::shared_ptr<const CompiledComplex> snapshot;
  const CompiledComplex* dc = nullptr;

  // All fixed-shape tables below are carved from this arena in one
  // compilation pass; the pointers borrow from it.
  std::unique_ptr<std::pmr::monotonic_buffer_resource> arena;

  const VertexId* vertex = nullptr;  // variable index → domain vertex
  // Candidate lists as one CSR table: values of variable i are
  // values_flat[values_off[i] .. values_off[i+1]).
  const VertexId* values_flat = nullptr;
  const std::uint32_t* values_off = nullptr;
  const Mask* full_domain = nullptr;

  // One compiled edge constraint, from one endpoint's point of view. `row`
  // and `skip` borrow from the shared DeltaImageCache class tables.
  struct BinaryRef {
    const Mask* row = nullptr;  // per own-value mask over other's values
    Mask skip = 0;              // own values whose row cannot prune other
    std::uint32_t other = 0;    // the neighboring variable
  };
  const BinaryRef* binary_flat = nullptr;  // CSR rows parallel to binary_off
  const std::uint32_t* binary_off = nullptr;

  // Triangle constraints, indexed by the compiled snapshot's triangle ids —
  // propagate() walks dc->triangles_of(var) directly.
  struct TriRef {
    std::array<std::uint32_t, 3> var = {0, 0, 0};  // ascending
    const DeltaImageCache::TriTables* tables = nullptr;
  };
  const TriRef* tris = nullptr;

  // Simplex constraints of arity >= 4 (tetrahedra for four processes, ...):
  // the image of {vars} must be a simplex of `allowed`. Rare — kept on the
  // generic membership-test path, filtered whenever exactly one member
  // remains unassigned.
  struct NaryConstraint {
    std::vector<std::size_t> vars;
    const CompiledComplex* allowed;  // Δ(carrier(simplex))
  };
  std::vector<NaryConstraint> nary;
  std::vector<std::vector<std::size_t>> nary_of;  // per variable

  // Worst-case live trail entries (one per constraint application per
  // simultaneously-assigned variable) — sizes each solver's undo arena.
  std::size_t trail_bound = 0;
  std::size_t bytes_reserved = 0;  // arena bytes carved by build_csp

  bool trivially_unsat = false;
  bool domain_overflow = false;  // some domain wider than kMaxDomain

  // Per-variable candidate-count tally, bucketed like obs::Histogram.
  // Accumulated locally during the (single-threaded, deterministic) build
  // and flushed to the registry once per CSP — the hot loop never touches
  // an atomic — then copied into MapSearchResult for the report rollups.
  std::array<std::uint64_t, obs::Histogram::kBuckets> domain_hist{};
  std::uint64_t domain_hist_count = 0;
  std::uint64_t domain_hist_sum = 0;

  VertexId value(std::size_t var, std::size_t j) const {
    return values_flat[values_off[var] + j];
  }
  std::uint32_t value_count(std::size_t var) const {
    return values_off[var + 1] - values_off[var];
  }
};

Csp build_csp(const VertexPool& pool, const SubdividedComplex& domain,
              const Task& task, bool chromatic, DeltaImageCache& images) {
  TRI_SPAN("map_search/build_csp");
  Csp csp;
  // The compiled snapshot's locals are in raw-id order — identical to the
  // sorted vertex_ids() order the hash-set path used — so variable indices,
  // candidate lists, and therefore the whole search trace are unchanged.
  csp.snapshot = domain.compiled;
  const CompiledComplex& dc = *csp.snapshot;
  csp.dc = &dc;
  csp.n = dc.num_vertices();
  if (csp.n == 0) return csp;

  csp.arena = std::make_unique<std::pmr::monotonic_buffer_resource>();
  auto& arena = *csp.arena;
  std::size_t* bytes = &csp.bytes_reserved;

  VertexId* vertex = arena_array<VertexId>(arena, csp.n, bytes);
  for (std::size_t i = 0; i < csp.n; ++i) {
    vertex[i] = dc.vertex(static_cast<CompiledComplex::Local>(i));
  }
  csp.vertex = vertex;

  auto image_of = [&](const Simplex& carrier) {
    return images.image_of(task.delta, carrier);
  };

  // Per-variable carriers, fetched once: edge/triangle carriers below are
  // unions of these (carrier_of is exactly that union).
  std::vector<const Simplex*> carrier_of_var(csp.n);
  for (std::size_t i = 0; i < csp.n; ++i) {
    carrier_of_var[i] = &domain.carrier.at(vertex[i]);
  }

  // Candidate lists, gathered into scratch and frozen as one CSR table.
  // Interned image of each variable's carrier; two variables with the same
  // (image, color) have identical candidate lists, which is what lets the
  // edge/triangle tables be shared below.
  std::vector<const CompiledComplex*> vertex_image(csp.n);
  std::vector<VertexId> values_scratch;
  std::uint32_t* values_off = arena_array<std::uint32_t>(arena, csp.n + 1, bytes);
  Mask* full_domain = arena_array<Mask>(arena, csp.n, bytes);
  values_off[0] = 0;
  for (std::size_t i = 0; i < csp.n; ++i) {
    vertex_image[i] = image_of(*carrier_of_var[i]);
    const CompiledComplex& img = *vertex_image[i];
    const Color own = chromatic ? pool.color(vertex[i]) : kNoColor;
    const std::size_t before = values_scratch.size();
    for (std::size_t j = 0; j < img.num_vertices(); ++j) {
      const VertexId w = img.vertex(static_cast<CompiledComplex::Local>(j));
      if (!chromatic || pool.color(w) == own) values_scratch.push_back(w);
    }
    const std::size_t count = values_scratch.size() - before;
    if (count == 0) {
      // No candidate at all: a complete assignment cannot exist, and an
      // exhaustive "no" is still a valid proof.
      csp.trivially_unsat = true;
      return csp;
    }
    if (count > kMaxDomain) {
      // Wider than the 64-bit word-parallel domains can represent. This is
      // a representation limit, NOT unsatisfiability — surface it so
      // callers report an inconclusive outcome instead of a bogus
      // impossibility proof.
      csp.domain_overflow = true;
      return csp;
    }
    values_off[i + 1] = static_cast<std::uint32_t>(values_scratch.size());
    full_domain[i] = count == kMaxDomain ? ~Mask{0} : (Mask{1} << count) - 1;
    ++csp.domain_hist[obs::Histogram::bucket_index(count)];
    ++csp.domain_hist_count;
    csp.domain_hist_sum += count;
  }
  VertexId* values_flat =
      arena_array<VertexId>(arena, values_scratch.size(), bytes);
  std::copy(values_scratch.begin(), values_scratch.end(), values_flat);
  csp.values_flat = values_flat;
  csp.values_off = values_off;
  csp.full_domain = full_domain;

  // Binary constraints as CSR rows: each edge contributes one BinaryRef per
  // endpoint, filled in global edge order (the order the old per-variable
  // push_backs produced).
  std::uint32_t* binary_off = arena_array<std::uint32_t>(arena, csp.n + 1, bytes);
  binary_off[0] = 0;
  for (std::size_t i = 0; i < csp.n; ++i) {
    binary_off[i + 1] =
        binary_off[i] + static_cast<std::uint32_t>(
                            dc.degree(static_cast<CompiledComplex::Local>(i)));
  }
  Csp::BinaryRef* binary_flat =
      arena_array<Csp::BinaryRef>(arena, binary_off[csp.n], bytes);
  std::vector<std::uint32_t> cursor(binary_off, binary_off + csp.n);
  for (std::size_t e = 0; e < dc.num_edges(); ++e) {
    // Variable indices ARE the compiled locals.
    const auto [la, lb] = dc.edge(e);
    const auto a = static_cast<std::size_t>(la), b = static_cast<std::size_t>(lb);
    const CompiledComplex* allowed =
        image_of(carrier_of_var[a]->unite(*carrier_of_var[b]));
    // Masks depend only on the edge's class (images + colors), not on the
    // concrete edge; the memo compiles each class once. Almost every edge
    // of Ch^r shares its class with many others.
    const DeltaImageCache::EdgeClass key{
        allowed, vertex_image[a], vertex_image[b],
        chromatic ? pool.color(vertex[a]) : kNoColor,
        chromatic ? pool.color(vertex[b]) : kNoColor};
    const DeltaImageCache::EdgeMasks* masks = images.edge_masks(
        key, values_flat + values_off[a], csp.value_count(a),
        values_flat + values_off[b], csp.value_count(b));
    binary_flat[cursor[a]++] = {masks->ab, masks->skip_ab,
                                static_cast<std::uint32_t>(b)};
    binary_flat[cursor[b]++] = {masks->ba, masks->skip_ba,
                                static_cast<std::uint32_t>(a)};
  }
  csp.binary_flat = binary_flat;
  csp.binary_off = binary_off;

  // Triangle constraints: one TriRef per compiled triangle id, with the
  // class-shared completion tables.
  const std::size_t num_tris = dc.num_triangles();
  Csp::TriRef* tris = arena_array<Csp::TriRef>(arena, num_tris, bytes);
  for (std::size_t tid = 0; tid < num_tris; ++tid) {
    const std::array<CompiledComplex::Local, 3> tv = dc.triangle(tid);
    const auto v0 = static_cast<std::size_t>(tv[0]);
    const auto v1 = static_cast<std::size_t>(tv[1]);
    const auto v2 = static_cast<std::size_t>(tv[2]);
    const CompiledComplex* allowed = image_of(carrier_of_var[v0]
                                                  ->unite(*carrier_of_var[v1])
                                                  .unite(*carrier_of_var[v2]));
    DeltaImageCache::TriClass key;
    key.allowed = allowed;
    key.image = {vertex_image[v0], vertex_image[v1], vertex_image[v2]};
    key.color = {chromatic ? pool.color(vertex[v0]) : kNoColor,
                 chromatic ? pool.color(vertex[v1]) : kNoColor,
                 chromatic ? pool.color(vertex[v2]) : kNoColor};
    tris[tid].var = {static_cast<std::uint32_t>(v0),
                     static_cast<std::uint32_t>(v1),
                     static_cast<std::uint32_t>(v2)};
    tris[tid].tables = images.tri_tables(
        key,
        {values_flat + values_off[v0], values_flat + values_off[v1],
         values_flat + values_off[v2]},
        {csp.value_count(v0), csp.value_count(v1), csp.value_count(v2)});
  }
  csp.tris = tris;

  // Cells of dimension >= 3 keep the generic membership-test path.
  std::size_t nary_memberships = 0;
  if (dc.dimension() >= 3) {
    csp.nary_of.resize(csp.n);
    for (int d = 3; d <= dc.dimension(); ++d) {
      const CompiledComplex::Local* flat = dc.cells_flat(d);
      const std::size_t stride = static_cast<std::size_t>(d) + 1;
      for (std::size_t cell = 0; cell < dc.count(d); ++cell) {
        const CompiledComplex::Local* verts = flat + cell * stride;
        Csp::NaryConstraint t;
        t.vars.reserve(stride);
        Simplex carrier;
        for (std::size_t i = 0; i < stride; ++i) {
          const auto var = static_cast<std::size_t>(verts[i]);
          t.vars.push_back(var);
          carrier = carrier.unite(*carrier_of_var[var]);
        }
        t.allowed = image_of(carrier);
        const std::size_t id = csp.nary.size();
        for (std::size_t var : t.vars) csp.nary_of[var].push_back(id);
        nary_memberships += t.vars.size();
        csp.nary.push_back(std::move(t));
      }
    }
  }

  csp.trail_bound = static_cast<std::size_t>(binary_off[csp.n]) +
                    3 * num_tris + nary_memberships + csp.n;
  return csp;
}

constexpr std::size_t kNoBudget = static_cast<std::size_t>(-1);
// Node charges are reconciled against the budget only at flush boundaries
// (every kNodeFlushBatch-th charge of the global counter); the canonical
// walk's cap point is defined by these boundaries.
constexpr std::size_t kNodeFlushBatch = 256;
// The prefix decomposition is fixed: the job list is a pure function of the
// CSP.
constexpr std::size_t kSplitTargetJobs = 64;
constexpr std::size_t kMaxPrefixDepth = 6;

struct Solver {
  const Csp& csp;
  bool dynamic_ordering = true;

  // The node budget, checked at flush boundaries.
  std::size_t local_budget = kNoBudget;
  std::size_t flush_batch = kNodeFlushBatch;

  bool aborted = false;  // unwound at a flush boundary (budget gone)
  std::size_t total_nodes = 0;
  std::size_t unflushed = 0;
  std::size_t fastpath_skips = 0;  // binary rows elided by skip masks

  struct TrailEntry {
    std::uint32_t var;
    Mask prev;
  };

  // All mutable search state is carved from one monotonic arena whose
  // backing buffer is reserved up front (arena_bytes is an upper bound, so
  // the inner loop never touches the global allocator).
  std::pmr::monotonic_buffer_resource arena;
  Mask* domain;              // current live values
  std::int32_t* assigned;    // value index or -1
  Mask* unassigned;          // bitset over variables, mirrors assigned
  std::size_t un_words;
  TrailEntry* trail;         // (variable, previous mask) undo log
  std::size_t trail_size = 0;
  std::uint32_t* trail_marks;
  std::size_t marks_size = 0;

  static std::size_t arena_bytes(const Csp& c) {
    const std::size_t words = (c.n + 63) / 64;
    return c.n * (sizeof(Mask) + sizeof(std::int32_t) + sizeof(std::uint32_t)) +
           words * sizeof(Mask) + c.trail_bound * sizeof(TrailEntry) + 128;
  }

  Solver(const Csp& c, bool mrv)
      : csp(c), dynamic_ordering(mrv), arena(arena_bytes(c)) {
    domain = arena_array<Mask>(arena, c.n);
    std::copy_n(c.full_domain, c.n, domain);
    assigned = arena_array<std::int32_t>(arena, c.n);
    std::fill_n(assigned, c.n, std::int32_t{-1});
    un_words = (c.n + 63) / 64;
    unassigned = arena_array<Mask>(arena, un_words);
    std::fill_n(unassigned, un_words, ~Mask{0});
    if (c.n % 64 != 0) unassigned[un_words - 1] = (Mask{1} << (c.n % 64)) - 1;
    trail = arena_array<TrailEntry>(arena, c.trail_bound);
    trail_marks = arena_array<std::uint32_t>(arena, c.n);
  }

  void shrink(std::size_t var, Mask mask) {
    const Mask cur = domain[var];
    if ((cur & mask) == cur) return;
    trail[trail_size++] = {static_cast<std::uint32_t>(var), cur};
    domain[var] = cur & mask;
  }

  /// Applies all consequences of assigning `var`; false on a wipe-out.
  bool propagate(std::size_t var) {
    const auto value = static_cast<std::size_t>(assigned[var]);
    for (std::uint32_t k = csp.binary_off[var], end = csp.binary_off[var + 1];
         k < end; ++k) {
      const Csp::BinaryRef& bc = csp.binary_flat[k];
      if (assigned[bc.other] >= 0) continue;
      if ((bc.skip >> value) & 1) {
        // Watched-mask fast path: this row permits the neighbor's whole
        // domain, so the intersection is provably a no-op. (Unassigned
        // domains are never empty — a wipe-out unwinds immediately — so
        // skipping the zero check is safe too.)
        ++fastpath_skips;
        continue;
      }
      shrink(bc.other, bc.row[value]);
      if (domain[bc.other] == 0) return false;
    }
    const auto lv = static_cast<CompiledComplex::Local>(var);
    const std::size_t tn = csp.dc->triangles_of_count(lv);
    if (tn > 0) {
      const std::uint32_t* tids = csp.dc->triangles_of(lv);
      for (std::size_t k = 0; k < tn; ++k) {
        const Csp::TriRef& t = csp.tris[tids[k]];
        // Filter the single unassigned member, if exactly one remains.
        int p = -1;
        for (int m = 0; m < 3; ++m) {
          if (assigned[t.var[static_cast<std::size_t>(m)]] < 0) {
            if (p >= 0) {
              p = -2;
              break;
            }
            p = m;
          }
        }
        if (p < 0) continue;
        static constexpr std::size_t kQ1[3] = {1, 0, 0};
        static constexpr std::size_t kQ2[3] = {2, 2, 1};
        const auto pp = static_cast<std::size_t>(p);
        const DeltaImageCache::TriTables& tab = *t.tables;
        const auto j1 = static_cast<std::size_t>(assigned[t.var[kQ1[pp]]]);
        const auto j2 = static_cast<std::size_t>(assigned[t.var[kQ2[pp]]]);
        const std::size_t u = t.var[pp];
        shrink(u, tab.comp[pp][j1 * tab.n[kQ2[pp]] + j2]);
        if (domain[u] == 0) return false;
      }
    }
    if (!csp.nary.empty()) {
      for (std::size_t tid : csp.nary_of[var]) {
        const auto& t = csp.nary[tid];
        // Filter the single unassigned member, if exactly one remains.
        std::size_t unassigned_var = csp.n;
        int count = 0;
        for (std::size_t m : t.vars) {
          if (assigned[m] < 0) {
            unassigned_var = m;
            ++count;
          }
        }
        if (count != 1) continue;
        std::vector<VertexId> fixed;
        fixed.reserve(t.vars.size() - 1);
        for (std::size_t m : t.vars) {
          if (m != unassigned_var) {
            fixed.push_back(
                csp.value(m, static_cast<std::size_t>(assigned[m])));
          }
        }
        Mask ok = 0;
        Mask live = domain[unassigned_var];
        while (live) {
          const int j = __builtin_ctzll(live);
          live &= live - 1;
          std::vector<VertexId> image = fixed;
          image.push_back(
              csp.value(unassigned_var, static_cast<std::size_t>(j)));
          if (t.allowed->contains(Simplex(std::move(image)))) {
            ok |= (Mask{1} << j);
          }
        }
        shrink(unassigned_var, ok);
        if (domain[unassigned_var] == 0) return false;
      }
    }
    return true;
  }

  /// MRV variable selection (or first-unassigned when ablated away);
  /// csp.n when everything is assigned. Scans only the unassigned bitset —
  /// same visit order and tie-break as the dense scan it replaces.
  std::size_t select_variable() const {
    if (!dynamic_ordering) {
      for (std::size_t w = 0; w < un_words; ++w) {
        if (unassigned[w] != 0) {
          return w * 64 +
                 static_cast<std::size_t>(__builtin_ctzll(unassigned[w]));
        }
      }
      return csp.n;
    }
    std::size_t best = csp.n;
    int best_count = 1 << 30;
    for (std::size_t w = 0; w < un_words; ++w) {
      Mask bits = unassigned[w];
      while (bits) {
        const std::size_t i =
            w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        const int count = __builtin_popcountll(domain[i]);
        if (count < best_count) {
          best_count = count;
          best = i;
          if (count == 1) return best;
        }
      }
    }
    return best;
  }

  /// Counts a node; false when the search must unwind (budget gone at a
  /// flush boundary).
  bool charge_node() {
    ++total_nodes;
    if (++unflushed < flush_batch) return true;
    unflushed = 0;
    if (total_nodes <= local_budget) return true;
    obs::MetricsRegistry::global().counter("map_search.cap_hits").add();
    aborted = true;
    return false;
  }

  /// Applies a decision prefix without charging (the expansion already paid
  /// for enumerating it). False when propagation wipes out: empty subtree.
  bool replay(const std::pair<std::uint32_t, std::int32_t>* prefix,
              std::size_t len) {
    for (std::size_t i = 0; i < len; ++i) {
      if (!assign(prefix[i].first, prefix[i].second)) return false;
    }
    return true;
  }

  /// Assigns value index `j` to `var` and propagates, pushing an undo mark.
  /// False on wipe-out (the mark is still pushed; call undo_to_mark).
  bool assign(std::size_t var, std::int32_t j) {
    trail_marks[marks_size++] = static_cast<std::uint32_t>(trail_size);
    assigned[var] = j;
    unassigned[var >> 6] &= ~(Mask{1} << (var & 63));
    return propagate(var);
  }

  void undo_to_mark(std::size_t var) {
    assigned[var] = -1;
    unassigned[var >> 6] |= Mask{1} << (var & 63);
    const std::uint32_t mark = trail_marks[--marks_size];
    while (trail_size > mark) {
      --trail_size;
      domain[trail[trail_size].var] = trail[trail_size].prev;
    }
  }

  bool search() {
    const std::size_t best = select_variable();
    if (best == csp.n) return true;  // all assigned

    Mask live = domain[best];
    while (live) {
      if (!charge_node()) return false;
      const auto j = static_cast<std::int32_t>(__builtin_ctzll(live));
      live &= live - 1;
      const bool ok = assign(best, j) && search();
      if (ok) return true;
      if (aborted) {
        // Budget exceeded somewhere below: unwind without exploring more.
        assigned[best] = -1;
        unassigned[best >> 6] |= Mask{1} << (best & 63);
        return false;
      }
      undo_to_mark(best);
    }
    return false;
  }
};

// Tiny CSPs (low radii, solo/edge-only inputs) run the plain backtracker
// without a prefix expansion. Verdicts are unaffected — both paths are
// complete.
constexpr std::size_t kMinVariablesForSplit = 10;

void emit_map(const Csp& csp, const std::int32_t* assigned,
              MapSearchResult& result) {
  result.found = true;
  for (std::size_t i = 0; i < csp.n; ++i) {
    result.map.set(csp.vertex[i],
                   csp.value(i, static_cast<std::size_t>(assigned[i])));
  }
}

/// Small-CSP path: the plain sequential backtracker with the seed engine's
/// exact per-node budget checks (flush batch 1).
void run_small(const Csp& csp, const MapSearchOptions& options,
               MapSearchResult& result) {
  arena_counter().add(Solver::arena_bytes(csp));
  Solver solver(csp, options.dynamic_ordering);
  solver.flush_batch = 1;
  solver.local_budget = options.node_cap;
  const bool found = solver.search();
  fastpath_counter().add(solver.fastpath_skips);
  result.nodes_explored = solver.total_nodes;
  result.exhausted = !solver.aborted;
  if (found) emit_map(csp, solver.assigned, result);
}

/// One disjoint chunk of the search space: the decision prefix reaching one
/// node at the top of the MRV tree. The prefix borrows from Expansion::pool
/// (stable for the expansion's life).
struct PrefixJob {
  const std::pair<std::uint32_t, std::int32_t>* prefix = nullptr;
  std::size_t prefix_len = 0;
};

struct Expansion {
  // Flat append-only storage for all prefixes: one allocation amortized
  // over every job instead of a vector per prefix.
  std::vector<std::pair<std::uint32_t, std::int32_t>> pool;
  std::vector<PrefixJob> jobs;  // DFS (lexicographic value-index) order
  std::size_t nodes = 0;        // charges paid enumerating the prefixes
  bool capped = false;
};

// Fixed decomposition: expand the top of the MRV tree breadth-first into
// ~kSplitTargetJobs disjoint prefixes, then sort them into DFS order.
// Sibling values are enumerated ascending and the variable at each level is
// a function of the prefix, so comparing value indices lexicographically
// reproduces the depth-first visit order. Expansion is where prefix
// enumeration is charged — the walk replays each prefix for free.
Expansion expand_prefixes(const Csp& csp, const MapSearchOptions& options) {
  TRI_SPAN("map_search/expand_prefixes");
  Expansion out;
  struct Span {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
  };
  std::deque<Span> open;
  std::vector<Span> leaves;
  auto& pool = out.pool;
  std::size_t skips = 0;
  const std::size_t solver_bytes = Solver::arena_bytes(csp);
  open.push_back({});
  while (!open.empty() && open.size() + leaves.size() < kSplitTargetJobs) {
    const Span p = open.front();
    open.pop_front();
    if (p.len >= kMaxPrefixDepth) {
      leaves.push_back(p);
      continue;
    }
    arena_counter().add(solver_bytes);
    Solver scratch(csp, options.dynamic_ordering);
    scratch.flush_batch = 1;  // exact budget checks while splitting
    scratch.local_budget =
        options.node_cap > out.nodes ? options.node_cap - out.nodes : 0;
    bool dead = false;
    for (std::uint32_t i = 0; i < p.len; ++i) {
      const auto [var, j] = pool[p.off + i];
      if (!scratch.charge_node()) {
        // Budget exhausted during splitting: inconclusive, nothing found.
        out.nodes += scratch.total_nodes;
        out.capped = true;
        fastpath_counter().add(skips + scratch.fastpath_skips);
        return out;
      }
      if (!scratch.assign(var, j)) {
        dead = true;
        break;
      }
    }
    out.nodes += scratch.total_nodes;
    skips += scratch.fastpath_skips;
    if (dead) continue;  // empty subtree: exhausted by propagation alone
    const std::size_t var = scratch.select_variable();
    if (var == csp.n) {
      // The prefix assigns every variable (unreachable while
      // kMaxPrefixDepth < kMinVariablesForSplit, but kept correct): the
      // walk's replay-then-search will confirm it as a zero-node witness.
      leaves.push_back(p);
      continue;
    }
    Mask live = scratch.domain[var];
    while (live) {
      const auto j = static_cast<std::int32_t>(__builtin_ctzll(live));
      live &= live - 1;
      const auto off = static_cast<std::uint32_t>(pool.size());
      pool.reserve(pool.size() + p.len + 1);
      for (std::uint32_t i = 0; i < p.len; ++i) pool.push_back(pool[p.off + i]);
      pool.push_back({static_cast<std::uint32_t>(var), j});
      open.push_back({off, p.len + 1});
    }
  }
  fastpath_counter().add(skips);
  for (const Span& p : open) leaves.push_back(p);
  std::sort(leaves.begin(), leaves.end(),
            [&pool](const Span& a, const Span& b) {
              const std::uint32_t n = std::min(a.len, b.len);
              for (std::uint32_t i = 0; i < n; ++i) {
                if (pool[a.off + i].second != pool[b.off + i].second) {
                  return pool[a.off + i].second < pool[b.off + i].second;
                }
              }
              return a.len < b.len;
            });
  out.jobs.reserve(leaves.size());
  for (const Span& p : leaves) out.jobs.push_back({pool.data() + p.off, p.len});
  return out;
}

// Canonical accounting: search the jobs in DFS order as ONE sequential run
// whose node counter carries across jobs. Each job's solver starts from the
// global counter and its flush phase, so the budget is reconciled at
// *global* flush boundaries (node counts 256, 512, ...) and a cap is
// detected within kNodeFlushBatch charges however the counter is sliced
// into subtrees. A job whose prefix wipes out by propagation is an empty
// subtree and charges nothing.
void canonical_walk(const Csp& csp, const MapSearchOptions& options,
                    const Expansion& expansion, MapSearchResult& result) {
  std::size_t base = expansion.nodes;
  for (const PrefixJob& job : expansion.jobs) {
    Solver solver(csp, options.dynamic_ordering);
    solver.local_budget = options.node_cap;
    solver.total_nodes = base;                  // global counter, carried over
    solver.unflushed = base % kNodeFlushBatch;  // global flush phase
    if (!solver.replay(job.prefix, job.prefix_len)) {
      fastpath_counter().add(solver.fastpath_skips);
      continue;
    }
    const bool solved = solver.search();
    if (!solved && solver.aborted) {
      result.exhausted = false;
      result.nodes_explored = solver.total_nodes;
      return;
    }
    base = solver.total_nodes;
    fastpath_counter().add(solver.fastpath_skips);
    if (solved) {
      result.nodes_explored = base;
      emit_map(csp, solver.assigned, result);
      return;
    }
  }
  result.nodes_explored = base;  // every subtree exhausted
}

void run_split(const Csp& csp, const MapSearchOptions& options,
               MapSearchResult& result) {
  const Expansion expansion = expand_prefixes(csp, options);
  if (expansion.capped) {
    result.exhausted = false;
    result.nodes_explored = expansion.nodes;
    return;
  }
  canonical_walk(csp, options, expansion, result);
}

}  // namespace

MapSearchResult find_decision_map(const VertexPool& pool,
                                  const SubdividedComplex& domain, const Task& task,
                                  const MapSearchOptions& options) {
  TRI_SPAN("map_search/find_decision_map");
  static obs::Counter& searches =
      obs::MetricsRegistry::global().counter("map_search.searches");
  searches.add();
  MapSearchResult result;
  DeltaImageCache local_images;
  DeltaImageCache& images =
      options.image_cache != nullptr ? *options.image_cache : local_images;
  const Csp csp = build_csp(pool, domain, task, options.chromatic, images);
  if (csp.domain_hist_count != 0) {
    static obs::Histogram& domain_sizes =
        obs::MetricsRegistry::global().histogram("search.csp.domain_size");
    domain_sizes.merge(csp.domain_hist, csp.domain_hist_count,
                       csp.domain_hist_sum);
    std::size_t buckets = obs::Histogram::kBuckets;
    while (buckets > 1 && csp.domain_hist[buckets - 1] == 0) --buckets;
    result.domain_size_hist.assign(csp.domain_hist.begin(),
                                   csp.domain_hist.begin() +
                                       static_cast<std::ptrdiff_t>(buckets));
    result.domain_size_count = csp.domain_hist_count;
    result.domain_size_sum = csp.domain_hist_sum;
  }
  if (csp.n == 0) {
    result.found = true;
    return result;
  }
  if (csp.domain_overflow) {
    static obs::Counter& overflows =
        obs::MetricsRegistry::global().counter("map_search.domain_overflows");
    overflows.add();
    result.domain_overflow = true;
    result.exhausted = false;
    return result;
  }
  if (csp.trivially_unsat) return result;
  arena_counter().add(csp.bytes_reserved);

  if (csp.n < kMinVariablesForSplit) {
    run_small(csp, options, result);
  } else {
    run_split(csp, options, result);
  }
  return result;
}

bool validate_decision_map(const VertexPool& pool, const SubdividedComplex& domain,
                           const Task& task, const VertexMap& map, bool chromatic) {
  bool ok = true;
  domain.complex.for_each([&](const Simplex& xi) {
    if (!ok) return;
    for (VertexId v : xi) {
      if (!map.defined(v)) {
        ok = false;
        return;
      }
      if (chromatic && pool.color(map.apply(v)) != pool.color(v)) {
        ok = false;
        return;
      }
    }
    const Simplex image = map.apply(xi);
    if (!task.output.contains(image) ||
        !task.delta.allows(domain.carrier_of(xi), image)) {
      ok = false;
    }
  });
  return ok;
}

}  // namespace trichroma
