#include "topology/compiled.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace trichroma {

namespace {

constexpr std::uint64_t pack(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

void CompiledComplex::Builder::add_closed(const Simplex& s) {
  const auto& v = s.vertices();
  switch (v.size()) {
    case 0:
      return;
    case 1:
      verts_.push_back(raw(v[0]));
      return;
    case 2:
      edges_.push_back(pack(raw(v[0]), raw(v[1])));
      return;
    case 3:
      tris_.push_back({raw(v[0]), raw(v[1]), raw(v[2])});
      return;
    default: {
      const auto d = v.size() - 1;
      if (high_.size() < d - 2) high_.resize(d - 2);
      auto& bucket = high_[d - 3];
      for (VertexId u : v) bucket.push_back(raw(u));
      return;
    }
  }
}

void CompiledComplex::Builder::add(const Simplex& s) {
  const auto& v = s.vertices();
  const std::size_t n = v.size();
  if (n == 0) return;
  if (n > 16) throw std::length_error("CompiledComplex::Builder::add: simplex too large");
  // Enumerate every non-empty vertex subset; subsets of a sorted vector are
  // sorted, so each face lands in its bucket already canonical.
  for (std::size_t mask = 1; mask < (std::size_t{1} << n); ++mask) {
    const int bits = __builtin_popcountll(mask);
    std::uint32_t face[16];
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
  //    iteration order everywhere downstream).
  std::sort(verts_.begin(), verts_.end());
  verts_.erase(std::unique(verts_.begin(), verts_.end()), verts_.end());
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  std::sort(tris_.begin(), tris_.end());
  tris_.erase(std::unique(tris_.begin(), tris_.end()), tris_.end());

  // 2. Dense renumbering: locals in raw-id order.
  const std::size_t nv = verts_.size();
  c.verts_.reserve(nv);
  for (std::uint32_t r : verts_) c.verts_.push_back(VertexId{r});
  const std::uint32_t max_raw = nv == 0 ? 0 : verts_.back() + 1;
  c.dense_.assign(max_raw, kAbsent);
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
  // vertex -> neighbors and vertex -> edges.
  c.nbr_off_.assign(nv + 1, 0);
  c.v2e_off_.assign(nv + 1, 0);
  for (std::size_t e = 0; e < ne; ++e) {
    const auto [u, v] = c.edge(e);
    ++c.nbr_off_[static_cast<std::size_t>(u) + 1];
    ++c.nbr_off_[static_cast<std::size_t>(v) + 1];
    ++c.v2e_off_[static_cast<std::size_t>(u) + 1];
    ++c.v2e_off_[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t i = 0; i < nv; ++i) {
    c.nbr_off_[i + 1] += c.nbr_off_[i];
    c.v2e_off_[i + 1] += c.v2e_off_[i];
  }
  c.nbr_.assign(c.nbr_off_[nv], kAbsent);
  c.v2e_.assign(c.v2e_off_[nv], 0);
  {
    std::vector<std::uint32_t> cursor(nv, 0);
    for (std::size_t e = 0; e < ne; ++e) {
      const auto [u, v] = c.edge(e);
      const auto iu = static_cast<std::size_t>(u), iv = static_cast<std::size_t>(v);
      c.nbr_[c.nbr_off_[iu] + cursor[iu]] = v;
      c.v2e_[c.v2e_off_[iu] + cursor[iu]++] = static_cast<std::uint32_t>(e);
      c.nbr_[c.nbr_off_[iv] + cursor[iv]] = u;
      c.v2e_[c.v2e_off_[iv] + cursor[iv]++] = static_cast<std::uint32_t>(e);
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

  // 6. Link adjacency bitsets over each neighbor row.
  c.link_off_.assign(nv + 1, 0);
  for (std::size_t i = 0; i < nv; ++i) {
    const std::size_t deg = c.nbr_off_[i + 1] - c.nbr_off_[i];
    c.link_off_[i + 1] = c.link_off_[i] + deg * ((deg + 63) / 64);
  }
  c.link_words_.assign(c.link_off_[nv], 0);
  for (std::size_t t = 0; t < nt; ++t) {
    const Local a = c.tri_verts_[3 * t], b = c.tri_verts_[3 * t + 1],
                d = c.tri_verts_[3 * t + 2];
    const Local tri[3] = {a, b, d};
    for (int i = 0; i < 3; ++i) {
      const Local v = tri[i];
      const Local x = tri[(i + 1) % 3], y = tri[(i + 2) % 3];
      const Local* row = c.neighbors(v);
      const std::size_t deg = c.degree(v);
      const std::size_t px = static_cast<std::size_t>(
          std::lower_bound(row, row + deg, x) - row);
      const std::size_t py = static_cast<std::size_t>(
          std::lower_bound(row, row + deg, y) - row);
      const std::size_t w = (deg + 63) / 64;
      std::uint64_t* words = c.link_words_.data() + c.link_off_[static_cast<std::size_t>(v)];
      words[px * w + py / 64] |= std::uint64_t{1} << (py % 64);
      words[py * w + px / 64] |= std::uint64_t{1} << (px % 64);
    }
  }

  // 7. Cells of dimension >= 3, sorted lexicographically per dimension.
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

  // 8. Dimension.
  c.dimension_ = -1;
  if (!c.verts_.empty()) c.dimension_ = 0;
  if (!c.edge_keys_.empty()) c.dimension_ = 1;
  if (nt > 0) c.dimension_ = 2;
  for (std::size_t i = 0; i < c.high_.size(); ++i) {
    if (c.high_[i].cells > 0) c.dimension_ = static_cast<int>(i) + 3;
  }
  return out;
}

std::shared_ptr<const CompiledComplex> CompiledComplex::compile(
    const SimplicialComplex& k) {
  TRI_SPAN("topology/compile");
  static obs::Counter& compiles =
      obs::MetricsRegistry::global().counter("topology.compiles");
  compiles.add();
  Builder builder;
  k.for_each([&builder](const Simplex& s) { builder.add_closed(s); });
  auto out = builder.finish();
#ifndef NDEBUG
  out->debug_verify_against(k);
#endif
  return out;
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

std::size_t CompiledComplex::total_count() const {
  std::size_t total = 0;
  for (int d = 0; d <= dimension_; ++d) total += count(d);
  return total;
}

const CompiledComplex::Local* CompiledComplex::cells_flat(int d) const {
  if (d == 2) return tri_verts_.data();
  if (d >= 3 && static_cast<std::size_t>(d - 3) < high_.size()) {
    return high_flat_.data() + high_[static_cast<std::size_t>(d - 3)].offset;
  }
  return nullptr;
}

bool CompiledComplex::contains(const Simplex& s) const {
  const auto& v = s.vertices();
  const std::size_t n = v.size();
  if (n == 0) return false;
  Local locals[16];
  if (n > 16) return false;
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

std::size_t CompiledComplex::star_count(Local v, int d) const {
  switch (d) {
    case 0:
      return 1;
    case 1:
      return edges_of_count(v);
    case 2:
      return triangles_of_count(v);
    default: {
      if (d < 3) return 0;
      const Local* flat = cells_flat(d);
      if (flat == nullptr) return 0;
      const std::size_t cells = count(d);
      const std::size_t stride = static_cast<std::size_t>(d) + 1;
      std::size_t total = 0;
      for (std::size_t i = 0; i < cells; ++i) {
        const Local* cell = flat + i * stride;
        for (std::size_t j = 0; j < stride; ++j) {
          if (cell[j] == v) {
            ++total;
            break;
          }
        }
      }
      return total;
    }
  }
}

std::size_t CompiledComplex::link_component_count(Local v) const {
  const std::size_t deg = degree(v);
  if (deg == 0) return 0;
  const std::size_t w = link_words_per_row(v);
  std::uint64_t visited[4] = {0, 0, 0, 0};
  std::vector<std::uint64_t> visited_heap;
  std::uint64_t* seen = visited;
  if (w > 4) {
    visited_heap.assign(w, 0);
    seen = visited_heap.data();
  }
  std::size_t components = 0;
  std::size_t stack[64];
  std::vector<std::size_t> stack_heap;
  std::size_t* frontier = stack;
  if (deg > 64) {
    stack_heap.resize(deg);
    frontier = stack_heap.data();
  }
  for (std::size_t start = 0; start < deg; ++start) {
    if (seen[start / 64] & (std::uint64_t{1} << (start % 64))) continue;
    ++components;
    seen[start / 64] |= std::uint64_t{1} << (start % 64);
    std::size_t top = 0;
    frontier[top++] = start;
    while (top > 0) {
      const std::size_t p = frontier[--top];
      const std::uint64_t* row = link_row(v, p);
      for (std::size_t word = 0; word < w; ++word) {
        std::uint64_t fresh = row[word] & ~seen[word];
        seen[word] |= fresh;
        while (fresh) {
          frontier[top++] = word * 64 +
                            static_cast<std::size_t>(__builtin_ctzll(fresh));
          fresh &= fresh - 1;
        }
      }
    }
  }
  return components;
}

std::vector<std::vector<VertexId>> CompiledComplex::link_components(Local v) const {
  const std::size_t deg = degree(v);
  std::vector<std::vector<VertexId>> components;
  if (deg == 0) return components;
  const std::size_t w = link_words_per_row(v);
  std::vector<std::uint64_t> seen(w, 0);
  std::vector<std::size_t> frontier(deg);
  const Local* row_verts = neighbors(v);
  // Starting from ascending positions keeps components ordered by smallest
  // vertex (positions are in raw-id order), matching connected_components.
  for (std::size_t start = 0; start < deg; ++start) {
    if (seen[start / 64] & (std::uint64_t{1} << (start % 64))) continue;
    seen[start / 64] |= std::uint64_t{1} << (start % 64);
    std::vector<std::size_t> members{start};
    std::size_t top = 0;
    frontier[top++] = start;
    while (top > 0) {
      const std::size_t p = frontier[--top];
      const std::uint64_t* row = link_row(v, p);
      for (std::size_t word = 0; word < w; ++word) {
        std::uint64_t fresh = row[word] & ~seen[word];
        seen[word] |= fresh;
        while (fresh) {
          const std::size_t q =
              word * 64 + static_cast<std::size_t>(__builtin_ctzll(fresh));
          fresh &= fresh - 1;
          members.push_back(q);
          frontier[top++] = q;
        }
      }
    }
    std::sort(members.begin(), members.end());
    std::vector<VertexId> ids;
    ids.reserve(members.size());
    for (std::size_t p : members) {
      ids.push_back(verts_[static_cast<std::size_t>(row_verts[p])]);
    }
    components.push_back(std::move(ids));
  }
  return components;
}

std::size_t CompiledComplex::component_count() const {
  const std::size_t nv = verts_.size();
  if (nv == 0) return 0;
  std::vector<Local> parent(nv);
  for (std::size_t i = 0; i < nv; ++i) parent[i] = static_cast<Local>(i);
  auto find = [&parent](Local x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  for (std::size_t e = 0; e < edge_keys_.size(); ++e) {
    const auto [u, v] = edge(e);
    const Local ru = find(u), rv = find(v);
    if (ru != rv) parent[static_cast<std::size_t>(ru)] = rv;
  }
  std::size_t roots = 0;
  for (std::size_t i = 0; i < nv; ++i) {
    if (find(static_cast<Local>(i)) == static_cast<Local>(i)) ++roots;
  }
  return roots;
}

std::vector<Simplex> CompiledComplex::facets() const {
  std::vector<Simplex> out;
  auto global = [this](Local l) { return verts_[static_cast<std::size_t>(l)]; };
  // Vertices: maximal iff isolated.
  for (std::size_t i = 0; i < verts_.size(); ++i) {
    if (degree(static_cast<Local>(i)) == 0) {
      out.push_back(Simplex::single(verts_[i]));
    }
  }
  // Edges: maximal iff in no triangle — i.e. the two endpoints are not
  // link-adjacent at either end; check via the bitset of the first endpoint.
  for (std::size_t e = 0; e < edge_keys_.size(); ++e) {
    const auto [u, v] = edge(e);
    const Local* row = neighbors(u);
    const std::size_t deg = degree(u);
    const std::size_t pu = static_cast<std::size_t>(
        std::lower_bound(row, row + deg, v) - row);
    const std::uint64_t* words = link_row(u, pu);
    bool in_triangle = false;
    const std::size_t w = link_words_per_row(u);
    for (std::size_t word = 0; word < w && !in_triangle; ++word) {
      in_triangle = words[word] != 0;
    }
    if (!in_triangle) out.push_back(Simplex{global(u), global(v)});
  }
  // Dimension >= 2 cells: maximal iff not a face of any (d+1)-cell.
  for (int d = 2; d <= dimension_; ++d) {
    const Local* flat = cells_flat(d);
    const std::size_t cells = count(d);
    const std::size_t stride = static_cast<std::size_t>(d) + 1;
    const std::size_t upper = count(d + 1);
    const Local* upper_flat = cells_flat(d + 1);
    for (std::size_t i = 0; i < cells; ++i) {
      const Local* cell = flat + i * stride;
      bool maximal = true;
      for (std::size_t j = 0; j < upper && maximal; ++j) {
        const Local* big = upper_flat + j * (stride + 1);
        // subset test over two sorted runs
        std::size_t a = 0, b = 0;
        while (a < stride && b < stride + 1) {
          if (cell[a] == big[b]) {
            ++a;
            ++b;
          } else if (cell[a] > big[b]) {
            ++b;
          } else {
            break;
          }
        }
        if (a == stride) maximal = false;
      }
      if (maximal) {
        std::vector<VertexId> ids;
        ids.reserve(stride);
        for (std::size_t j = 0; j < stride; ++j) ids.push_back(global(cell[j]));
        out.emplace_back(std::move(ids));
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
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
