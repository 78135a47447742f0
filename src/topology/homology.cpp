#include "topology/homology.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "topology/graph.h"

namespace trichroma {

Chain chain_add(const Chain& a, const Chain& b) {
  // Multiset symmetric difference with GF(2) cancellation.
  std::unordered_map<Simplex, int, SimplexHash> count;
  for (const Simplex& s : a) count[s] ^= 1;
  for (const Simplex& s : b) count[s] ^= 1;
  Chain out;
  for (const auto& [s, c] : count) {
    if (c) out.push_back(s);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Chain boundary(const Chain& c) {
  Chain acc;
  for (const Simplex& s : c) {
    Chain faces;
    for (const Simplex& f : s.boundary_faces()) faces.push_back(f);
    acc = chain_add(acc, faces);
  }
  return acc;
}

bool is_one_cycle(const Chain& c) {
  for (const Simplex& s : c) {
    if (s.dim() != 1) return false;
  }
  return boundary(c).empty();
}

Chain loop_to_chain(const std::vector<VertexId>& closed_path) {
  Chain edges;
  if (closed_path.size() < 2) return edges;
  for (std::size_t i = 0; i + 1 < closed_path.size(); ++i) {
    if (closed_path[i] != closed_path[i + 1]) {
      edges.push_back(Simplex{closed_path[i], closed_path[i + 1]});
    }
  }
  if (closed_path.back() != closed_path.front()) {
    edges.push_back(Simplex{closed_path.back(), closed_path.front()});
  }
  // Cancel duplicate edges over GF(2).
  return chain_add(edges, Chain{});
}

bool bounds_in(const SimplicialComplex& k, const Chain& cycle) {
  return bounds_modulo(k, cycle, {});
}

bool bounds_modulo(const SimplicialComplex& k, const Chain& cycle,
                   const std::vector<Chain>& generators) {
  assert(is_one_cycle(cycle));
  // Over GF(2) orientation does not matter: give every edge coefficient 1.
  auto unit = [](const Chain& c) {
    OrientedChain out;
    for (const Simplex& s : c) out.emplace(s, 1);
    return out;
  };
  std::vector<OrientedChain> oriented;
  for (const Chain& g : generators) oriented.push_back(unit(g));
  return bounds_modulo_p(k, unit(cycle), oriented, 2);
}

std::vector<Chain> cycle_basis(const SimplicialComplex& k) {
  std::vector<Chain> out;
  for (const OrientedChain& c : oriented_cycle_basis(k)) {
    Chain edges;  // a fundamental cycle is simple: every coefficient is ±1
    for (const auto& [edge, coeff] : c) edges.push_back(edge);
    std::sort(edges.begin(), edges.end());
    out.push_back(std::move(edges));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Oriented (mod-p) homology.
// ---------------------------------------------------------------------------

void oriented_add_edge(OrientedChain& chain, VertexId from, VertexId to,
                       long long delta) {
  if (from == to) return;
  const bool forward = raw(from) < raw(to);
  const Simplex edge{from, to};
  const long long signed_delta = forward ? delta : -delta;
  auto it = chain.find(edge);
  if (it == chain.end()) {
    if (signed_delta != 0) chain.emplace(edge, signed_delta);
    return;
  }
  it->second += signed_delta;
  if (it->second == 0) chain.erase(it);
}

OrientedChain oriented_path_chain(const std::vector<VertexId>& path) {
  OrientedChain chain;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    oriented_add_edge(chain, path[i], path[i + 1]);
  }
  return chain;
}

bool is_oriented_cycle(const OrientedChain& c) {
  std::unordered_map<VertexId, long long, VertexIdHash> boundary;
  for (const auto& [edge, coeff] : c) {
    // ∂(u→v) = v - u with u < v by the orientation convention.
    boundary[edge[1]] += coeff;
    boundary[edge[0]] -= coeff;
  }
  for (const auto& [v, b] : boundary) {
    (void)v;
    if (b != 0) return false;
  }
  return true;
}

namespace {

/// Packed key of the edge {a, b}: the smaller raw id in the high word, so
/// sorted keys order edges lexicographically.
std::uint64_t edge_key(VertexId a, VertexId b) {
  const std::uint64_t x = raw(a), y = raw(b);
  return x < y ? (x << 32) | y : (y << 32) | x;
}

std::uint32_t mod_inverse(std::uint32_t a, std::uint32_t p) {
  // Fermat: p is prime and a != 0 mod p.
  std::uint64_t result = 1, base = a;
  for (std::uint32_t exp = p - 2; exp > 0; exp >>= 1) {
    if (exp & 1) result = result * base % p;
    base = base * base % p;
  }
  return static_cast<std::uint32_t>(result);
}

template <typename T>
void sort_unique(std::vector<T>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

BoundarySpan::Cells BoundarySpan::Cells::of(const SimplicialComplex& k) {
  Cells cells;
  k.for_each([&](const Simplex& s) {
    if (s.size() == 2) cells.edges.push_back(edge_key(s[0], s[1]));
    if (s.size() == 3) cells.triangles.push_back({s[0], s[1], s[2]});
  });
  sort_unique(cells.edges);
  sort_unique(cells.triangles);
  return cells;
}

BoundarySpan::Cells BoundarySpan::Cells::of(const std::vector<Simplex>& facets) {
  Cells cells;
  for (const Simplex& f : facets) {
    const std::size_t n = f.size();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        cells.edges.push_back(edge_key(f[i], f[j]));
        for (std::size_t l = j + 1; l < n; ++l) cells.triangles.push_back({f[i], f[j], f[l]});
      }
    }
  }
  sort_unique(cells.edges);
  sort_unique(cells.triangles);
  return cells;
}

BoundarySpan::BoundarySpan(const SimplicialComplex& k, long long p)
    : BoundarySpan(Cells::of(k), p) {}

BoundarySpan::BoundarySpan(const Cells& cells, long long p)
    : p_(static_cast<std::uint32_t>(p)), edges_(cells.edges) {
  if (p < 2 || p > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("BoundarySpan: p must be a prime below 2^32");
  }
  pivot_.assign(edges_.size(), -1);
  for (const auto& [a, b, c] : cells.triangles) {
    // ∂{a,b,c} = (a,b) - (a,c) + (b,c) for a < b < c, in ascending row order.
    insert({{row(a, b), 1}, {row(a, c), p_ - 1}, {row(b, c), 1}});
  }
}

void BoundarySpan::add(const OrientedChain& generator) {
  Column v;
  if (to_column(generator, v)) {
    insert(std::move(v));
  } else {
    leaves_ = true;
  }
}

bool BoundarySpan::contains(const OrientedChain& chain) const {
  Column v;
  if (leaves_ || !to_column(chain, v)) return false;
  reduce(v);
  return v.empty();
}

std::uint32_t BoundarySpan::row(VertexId a, VertexId b) const {
  const std::uint64_t key = edge_key(a, b);
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), key);
  return it != edges_.end() && *it == key
             ? static_cast<std::uint32_t>(it - edges_.begin())
             : kNoRow;
}

bool BoundarySpan::to_column(const OrientedChain& c, Column& out) const {
  for (const auto& [edge, coeff] : c) {
    const std::uint32_t r = edge.size() == 2 ? row(edge[0], edge[1]) : kNoRow;
    if (r == kNoRow) return false;  // the chain leaves the complex
    const long long m = coeff % static_cast<long long>(p_);
    if (m != 0) out.push_back({r, static_cast<std::uint32_t>(m < 0 ? m + p_ : m)});
  }
  std::sort(out.begin(), out.end(),
            [](const Entry& x, const Entry& y) { return x.row < y.row; });
  return true;
}

void BoundarySpan::reduce(Column& v) const {
  Column sum;
  while (!v.empty()) {
    const std::int32_t j = pivot_[v.back().row];
    if (j < 0) return;
    // v -= v.back().coeff · column j, whose pivot coefficient is 1: a merge
    // of two row-sorted columns that cancels v's last row.
    const Column& col = columns_[static_cast<std::size_t>(j)];
    const std::uint64_t f = p_ - v.back().coeff;
    sum.clear();
    std::size_t x = 0, y = 0;
    while (x < v.size() || y < col.size()) {
      if (y == col.size() || (x < v.size() && v[x].row < col[y].row)) {
        sum.push_back(v[x++]);
        continue;
      }
      const bool both = x < v.size() && v[x].row == col[y].row;
      const auto m = static_cast<std::uint32_t>(
          ((both ? v[x].coeff : 0) + f * col[y].coeff) % p_);
      if (m != 0) sum.push_back({col[y].row, m});
      x += both ? 1 : 0;
      ++y;
    }
    v.swap(sum);
  }
}

void BoundarySpan::insert(Column v) {
  reduce(v);
  if (v.empty()) return;
  const std::uint64_t inv = mod_inverse(v.back().coeff, p_);
  for (Entry& e : v) e.coeff = static_cast<std::uint32_t>(e.coeff * inv % p_);
  pivot_[v.back().row] = static_cast<std::int32_t>(columns_.size());
  columns_.push_back(std::move(v));
}

BettiNumbers betti_numbers(const SimplicialComplex& k) {
  // Over any field rank ∂1 = V - b0, the size of a spanning forest, found by
  // a union-find over the span's sorted edges; rank ∂2 is the span of the
  // triangle boundaries.
  BettiNumbers out;
  if (k.empty()) return out;
  const BoundarySpan span(k, 2);
  std::uint32_t lo = std::numeric_limits<std::uint32_t>::max(), hi = 0;
  for (std::uint64_t e : span.edges_) {
    lo = std::min(lo, static_cast<std::uint32_t>(e >> 32));
    hi = std::max(hi, static_cast<std::uint32_t>(e & 0xffffffffu));
  }
  UnionFind sets(lo <= hi ? hi - lo + 1 : 0);
  long long rank_d1 = 0;
  for (std::uint64_t e : span.edges_) {
    rank_d1 += sets.unite(static_cast<std::uint32_t>(e >> 32) - lo,
                          static_cast<std::uint32_t>(e & 0xffffffffu) - lo);
  }
  const auto rank_d2 = static_cast<long long>(span.rank());
  out.b0 = static_cast<long long>(k.count(0)) - rank_d1;
  out.b1 = static_cast<long long>(k.count(1)) - rank_d1 - rank_d2;
  out.b2 = static_cast<long long>(k.count(2)) - rank_d2;
  return out;
}

bool bounds_modulo_p(const SimplicialComplex& k, const OrientedChain& cycle,
                     const std::vector<OrientedChain>& generators, long long p) {
  BoundarySpan span(k, p);
  for (const OrientedChain& g : generators) span.add(g);
  return span.contains(cycle);
}

std::vector<OrientedChain> oriented_cycle_basis(const CompiledComplex& k) {
  using Local = CompiledComplex::Local;
  const std::size_t n = k.num_vertices();
  std::vector<std::int32_t> depth(n, -1);
  std::vector<Local> parent(n);
  for (std::size_t root = 0; root < n; ++root) {
    if (depth[root] < 0) breadth_first(k, static_cast<Local>(root), depth, parent);
  }
  std::vector<OrientedChain> out;
  std::vector<Local> up, down;
  for (std::size_t e = 0; e < k.num_edges(); ++e) {
    const auto [a, b] = k.edge(e);
    const auto ia = static_cast<std::size_t>(a), ib = static_cast<std::size_t>(b);
    if (parent[ia] == b || parent[ib] == a) continue;  // a tree edge
    // Climb from both ends to their lowest common ancestor, then walk
    // a → ancestor → b → a.
    up.assign({a});
    down.assign({b});
    while (depth[static_cast<std::size_t>(up.back())] >
           depth[static_cast<std::size_t>(down.back())]) {
      up.push_back(parent[static_cast<std::size_t>(up.back())]);
    }
    while (depth[static_cast<std::size_t>(down.back())] >
           depth[static_cast<std::size_t>(up.back())]) {
      down.push_back(parent[static_cast<std::size_t>(down.back())]);
    }
    while (up.back() != down.back()) {
      up.push_back(parent[static_cast<std::size_t>(up.back())]);
      down.push_back(parent[static_cast<std::size_t>(down.back())]);
    }
    up.insert(up.end(), down.rbegin() + 1, down.rend());
    up.push_back(a);
    OrientedChain cycle;
    for (std::size_t i = 0; i + 1 < up.size(); ++i) {
      oriented_add_edge(cycle, k.vertex(up[i]), k.vertex(up[i + 1]));
    }
    out.push_back(std::move(cycle));
  }
  return out;
}

std::vector<OrientedChain> oriented_cycle_basis(const SimplicialComplex& k) {
  return oriented_cycle_basis(*compile_one_skeleton(k));
}

}  // namespace trichroma
