#include "topology/compiled.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "topology/graph.h"

namespace trichroma {

namespace {

constexpr std::uint64_t pack(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

void CompiledComplex::Builder::add(const Simplex& s) {
  const std::span<const VertexId> v = s.vertices();
  const std::size_t n = v.size();
  if (n == 0) return;
  if (n == 3) {
    // Triangles, almost every facet a 3-process task streams, skip the
    // subset enumeration below.
    const std::uint32_t a = raw(v[0]), b = raw(v[1]), c = raw(v[2]);
    verts_.insert(verts_.end(), {a, b, c});
    edges_.insert(edges_.end(), {pack(a, b), pack(a, c), pack(b, c)});
    tris_.push_back({a, b, c});
    return;
  }
  // Enumerate every non-empty vertex subset; subsets of a sorted simplex are
  // sorted, so each face lands in its bucket already canonical.
  for (std::size_t mask = 1; mask < (std::size_t{1} << n); ++mask) {
    const int bits = __builtin_popcountll(mask);
    std::uint32_t face[Simplex::kMaxVertices] = {};
    int m = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (std::size_t{1} << i)) face[m++] = raw(v[i]);
    }
    switch (bits) {
      case 1:
        verts_.push_back(face[0]);
        break;
      case 2:
        edges_.push_back(pack(face[0], face[1]));
        break;
      case 3:
        tris_.push_back({face[0], face[1], face[2]});
        break;
      default: {
        const std::size_t d = static_cast<std::size_t>(bits) - 1;
        if (high_.size() < d - 2) high_.resize(d - 2);
        auto& bucket = high_[d - 3];
        for (int i = 0; i < bits; ++i) bucket.push_back(face[i]);
        break;
      }
    }
  }
}

std::shared_ptr<const CompiledComplex> CompiledComplex::Builder::finish() {
  // shared_ptr<CompiledComplex> with private ctor: allocate via a local
  // subclass trampoline.
  struct Concrete : CompiledComplex {};
  auto out = std::make_shared<Concrete>();
  CompiledComplex& c = *out;

  // 1. Deduplicate the scratch buckets (sorted order is the canonical
  //    iteration order everywhere downstream). Vertices repeat once per
  //    incident face, so they are deduplicated through the raw-id table
  //    the renumbering sizes anyway, and only the survivors are sorted.
  {
    std::uint32_t top = 0;
    for (std::uint32_t r : verts_) top = std::max(top, r + 1);
    c.dense_.assign(top, kAbsent);
    std::size_t kept = 0;
    for (std::uint32_t r : verts_) {
      if (c.dense_[r] == kAbsent) {
        c.dense_[r] = 0;
        verts_[kept++] = r;
      }
    }
    verts_.resize(kept);
    std::sort(verts_.begin(), verts_.end());
  }
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  std::sort(tris_.begin(), tris_.end());
  tris_.erase(std::unique(tris_.begin(), tris_.end()), tris_.end());

  // 2. Dense renumbering: locals in raw-id order.
  const std::size_t nv = verts_.size();
  c.verts_.reserve(nv);
  for (std::uint32_t r : verts_) c.verts_.push_back(VertexId{r});
  for (std::size_t i = 0; i < nv; ++i) {
    c.dense_[verts_[i]] = static_cast<Local>(i);
  }
  auto to_local = [&c](std::uint32_t r) { return c.dense_[r]; };

  // 3. Edge table in packed local keys. Locals are monotone in raw ids, so
  //    the raw-sorted list is already local-sorted.
  const std::size_t ne = edges_.size();
  c.edge_keys_.reserve(ne);
  for (std::uint64_t k : edges_) {
    c.edge_keys_.push_back(
        pack(static_cast<std::uint32_t>(to_local(static_cast<std::uint32_t>(k >> 32))),
             static_cast<std::uint32_t>(to_local(static_cast<std::uint32_t>(k & 0xffffffffu)))));
  }

  // 4. Triangle table (stride 3).
  const std::size_t nt = tris_.size();
  c.tri_verts_.reserve(3 * nt);
  for (const auto& t : tris_) {
    c.tri_verts_.push_back(to_local(t[0]));
    c.tri_verts_.push_back(to_local(t[1]));
    c.tri_verts_.push_back(to_local(t[2]));
  }

  // 5. CSR incidence. Iterating the sorted edge/triangle tables appends to
  //    each row in ascending order, so rows come out sorted for free.
  // vertex -> neighbors.
  c.nbr_off_.assign(nv + 1, 0);
  for (std::size_t e = 0; e < ne; ++e) {
    const auto [u, v] = c.edge(e);
    ++c.nbr_off_[static_cast<std::size_t>(u) + 1];
    ++c.nbr_off_[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t i = 0; i < nv; ++i) c.nbr_off_[i + 1] += c.nbr_off_[i];
  c.nbr_.assign(c.nbr_off_[nv], kAbsent);
  {
    std::vector<std::uint32_t> cursor(nv, 0);
    for (std::size_t e = 0; e < ne; ++e) {
      const auto [u, v] = c.edge(e);
      const auto iu = static_cast<std::size_t>(u), iv = static_cast<std::size_t>(v);
      c.nbr_[c.nbr_off_[iu] + cursor[iu]++] = v;
      c.nbr_[c.nbr_off_[iv] + cursor[iv]++] = u;
    }
  }

  // vertex -> triangles.
  c.v2t_off_.assign(nv + 1, 0);
  for (std::size_t t = 0; t < nt; ++t) {
    for (int i = 0; i < 3; ++i) {
      ++c.v2t_off_[static_cast<std::size_t>(c.tri_verts_[3 * t + i]) + 1];
    }
  }
  for (std::size_t i = 0; i < nv; ++i) c.v2t_off_[i + 1] += c.v2t_off_[i];
  c.v2t_.assign(c.v2t_off_[nv], 0);
  {
    std::vector<std::uint32_t> cursor(nv, 0);
    for (std::size_t t = 0; t < nt; ++t) {
      for (int i = 0; i < 3; ++i) {
        const auto v = static_cast<std::size_t>(c.tri_verts_[3 * t + i]);
        c.v2t_[c.v2t_off_[v] + cursor[v]++] = static_cast<std::uint32_t>(t);
      }
    }
  }

  // 6. Cells of dimension >= 3, sorted lexicographically per dimension.
  for (std::size_t i = 0; i < high_.size(); ++i) {
    auto& flat = high_[i];
    const std::size_t stride = i + 4;  // vertices per cell at dim 3+i
    std::vector<std::vector<std::uint32_t>> cells;
    cells.reserve(flat.size() / stride);
    for (std::size_t p = 0; p + stride <= flat.size(); p += stride) {
      cells.emplace_back(flat.begin() + static_cast<std::ptrdiff_t>(p),
                         flat.begin() + static_cast<std::ptrdiff_t>(p + stride));
    }
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
    HighTable table;
    table.offset = c.high_flat_.size();
    table.cells = cells.size();
    for (const auto& cell : cells) {
      for (std::uint32_t r : cell) c.high_flat_.push_back(to_local(r));
    }
    c.high_.push_back(table);
  }
  // Trim empty trailing dimensions (possible when only some high dims occur).
  while (!c.high_.empty() && c.high_.back().cells == 0) c.high_.pop_back();

  // 7. Dimension.
  c.dimension_ = -1;
  if (!c.verts_.empty()) c.dimension_ = 0;
  if (!c.edge_keys_.empty()) c.dimension_ = 1;
  if (nt > 0) c.dimension_ = 2;
  for (std::size_t i = 0; i < c.high_.size(); ++i) {
    if (c.high_[i].cells > 0) c.dimension_ = static_cast<int>(i) + 3;
  }
  return out;
}

std::shared_ptr<const CompiledComplex> CompiledComplex::of_facets(
    const std::vector<Simplex>& facets) {
  TRI_SPAN("topology/compile");
  static obs::Counter& compiles =
      obs::MetricsRegistry::global().counter("topology.compiles");
  compiles.add();
  Builder builder;
  for (const Simplex& f : facets) builder.add(f);
  return builder.finish();
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

std::ptrdiff_t CompiledComplex::edge_index(Local u, Local v) const {
  const std::uint64_t key =
      pack(static_cast<std::uint32_t>(u), static_cast<std::uint32_t>(v));
  const auto it = std::lower_bound(edge_keys_.begin(), edge_keys_.end(), key);
  if (it == edge_keys_.end() || *it != key) return -1;
  return it - edge_keys_.begin();
}

bool CompiledComplex::contains_triangle(Local a, Local b, Local c) const {
  // Walk the shortest incidence row instead of binary-searching the global
  // triangle table: rows are tiny and cache-resident.
  const Local probe[3] = {a, b, c};
  Local best = a;
  std::size_t best_count = triangles_of_count(a);
  for (int i = 1; i < 3; ++i) {
    const std::size_t n = triangles_of_count(probe[i]);
    if (n < best_count) {
      best_count = n;
      best = probe[i];
    }
  }
  const std::uint32_t* row = triangles_of(best);
  for (std::size_t i = 0; i < best_count; ++i) {
    const std::size_t t = row[i];
    if (tri_verts_[3 * t] == a && tri_verts_[3 * t + 1] == b &&
        tri_verts_[3 * t + 2] == c) {
      return true;
    }
  }
  return false;
}

std::size_t CompiledComplex::count(int d) const {
  switch (d) {
    case 0:
      return verts_.size();
    case 1:
      return edge_keys_.size();
    case 2:
      return num_triangles();
    default:
      if (d < 0 || static_cast<std::size_t>(d - 3) >= high_.size()) return 0;
      return high_[static_cast<std::size_t>(d - 3)].cells;
  }
}

const CompiledComplex::Local* CompiledComplex::cells_flat(int d) const {
  if (d == 2) return tri_verts_.data();
  if (d >= 3 && static_cast<std::size_t>(d - 3) < high_.size()) {
    return high_flat_.data() + high_[static_cast<std::size_t>(d - 3)].offset;
  }
  return nullptr;
}

bool CompiledComplex::contains(const Simplex& s) const {
  const std::span<const VertexId> v = s.vertices();
  const std::size_t n = v.size();
  if (n == 0) return false;
  Local locals[Simplex::kMaxVertices] = {};
  for (std::size_t i = 0; i < n; ++i) {
    locals[i] = local(v[i]);
    if (locals[i] == kAbsent) return false;
  }
  switch (n) {
    case 1:
      return true;
    case 2:
      return contains_edge(locals[0], locals[1]);
    case 3:
      return contains_triangle(locals[0], locals[1], locals[2]);
    default: {
      const int d = static_cast<int>(n) - 1;
      const Local* flat = cells_flat(d);
      if (flat == nullptr) return false;
      const std::size_t cells = count(d);
      // Binary search over the lexicographically sorted stride-n table.
      std::size_t lo = 0, hi = cells;
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        const Local* cell = flat + mid * n;
        const int cmp = [&] {
          for (std::size_t i = 0; i < n; ++i) {
            if (cell[i] != locals[i]) return cell[i] < locals[i] ? -1 : 1;
          }
          return 0;
        }();
        if (cmp == 0) return true;
        if (cmp < 0) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return false;
    }
  }
}

std::size_t CompiledComplex::link_component_count(Local v) const {
  // lk(v) as disjoint sets over the positions of v's neighbor row: each
  // triangle {v, x, y} through v joins x and y. The sets and the map from
  // locals to row positions are per-thread scratch (a snapshot is shared
  // across batch threads); the map needs no clearing, as every x and y is
  // in v's row.
  struct Scratch {
    std::vector<std::uint32_t> position;  // local -> position in the row
    UnionFind sets{0};
  };
  thread_local Scratch scratch;
  if (scratch.position.size() < num_vertices()) scratch.position.resize(num_vertices());
  const Local* row = neighbors(v);
  const std::size_t deg = degree(v);
  for (std::uint32_t p = 0; p < deg; ++p) scratch.position[static_cast<std::size_t>(row[p])] = p;
  const auto position = [&](Local x) { return scratch.position[static_cast<std::size_t>(x)]; };
  scratch.sets.reset(deg);
  const std::uint32_t* tris = triangles_of(v);
  for (std::size_t i = 0, n = triangles_of_count(v); i < n; ++i) {
    const auto [a, b, c] = triangle(tris[i]);
    scratch.sets.unite(position(a == v ? b : a), position(c == v ? b : c));
  }
  return scratch.sets.count();
}

void CompiledComplex::debug_verify_against(const SimplicialComplex& k) const {
#ifdef NDEBUG
  (void)k;
#else
  // Same per-dimension counts and every source simplex present: together
  // these prove the stored sets are equal.
  assert(dimension_ == k.dimension());
  for (int d = 0; d <= dimension_; ++d) {
    assert(count(d) == k.count(d));
  }
  k.for_each([this](const Simplex& s) { assert(contains(s)); });
#endif
}

}  // namespace trichroma
