// Differential oracle for the impossibility engines. Corollaries 5.5 and
// 5.6, the connectivity CSP, the homology boundary check and betti_numbers
// read Δ as facet lists: sorted vertex rows, union-find components, the
// compiled edge images and the facet-list BoundarySpan. The forms they
// replaced built every image as a hash-set SimplicialComplex and queried it
// through a hash-map adjacency. Those forms live on here, verbatim apart
// from a legacy_ prefix on the names graph.h and homology.h still declare,
// and the two must agree exactly: the same feasibility, exhaustion, node
// count, witness and detail; the same Corollary 5.5/5.6 verdict, detail and
// exception; and the same Betti numbers of O* and O′. The sweep covers T*
// and T′ of the zoo catalog and of seeded draws over every combination of
// 1–4 input facets, 2–4 output values per color and restricted faces
// on/off, at the default corner cap and at caps that stop searches early.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/characterization.h"
#include "core/lap.h"
#include "core/obstructions.h"
#include "tasks/canonical.h"
#include "tasks/zoo.h"
#include "topology/graph.h"
#include "topology/homology.h"

namespace trichroma {
namespace {

// ---------------------------------------------------------------------------
// The hash-map graph routines (topology/graph.cpp, topology/homology.cpp).
// ---------------------------------------------------------------------------

std::unordered_map<VertexId, std::vector<VertexId>, VertexIdHash> legacy_adjacency(
    const SimplicialComplex& k) {
  std::unordered_map<VertexId, std::vector<VertexId>, VertexIdHash> adj;
  for (VertexId v : k.vertex_ids()) adj[v];  // ensure isolated vertices appear
  for (const Simplex& e : k.simplices(1)) {
    adj[e[0]].push_back(e[1]);
    adj[e[1]].push_back(e[0]);
  }
  for (auto& [v, nbrs] : adj) {
    (void)v;
    std::sort(nbrs.begin(), nbrs.end(),
              [](VertexId a, VertexId b) { return raw(a) < raw(b); });
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  }
  return adj;
}

std::vector<std::vector<VertexId>> legacy_connected_components(const SimplicialComplex& k) {
  const auto adj = legacy_adjacency(k);
  std::unordered_map<VertexId, bool, VertexIdHash> seen;
  std::vector<std::vector<VertexId>> components;
  for (VertexId root : k.vertex_ids()) {
    if (seen[root]) continue;
    std::vector<VertexId> comp;
    std::deque<VertexId> queue{root};
    seen[root] = true;
    while (!queue.empty()) {
      VertexId v = queue.front();
      queue.pop_front();
      comp.push_back(v);
      for (VertexId u : adj.at(v)) {
        if (!seen[u]) {
          seen[u] = true;
          queue.push_back(u);
        }
      }
    }
    std::sort(comp.begin(), comp.end(),
              [](VertexId a, VertexId b) { return raw(a) < raw(b); });
    components.push_back(std::move(comp));
  }
  std::sort(components.begin(), components.end(),
            [](const auto& a, const auto& b) { return raw(a[0]) < raw(b[0]); });
  return components;
}

std::optional<std::vector<VertexId>> legacy_lex_min_shortest_path(const SimplicialComplex& k,
                                                           VertexId from, VertexId to) {
  const auto adj = legacy_adjacency(k);
  if (adj.count(from) == 0 || adj.count(to) == 0) return std::nullopt;
  if (from == to) return std::vector<VertexId>{from};

  // BFS from `to` gives every vertex its distance to the target; then the
  // lexicographically-smallest shortest path is built greedily from `from`,
  // always stepping to the smallest neighbor one step closer to the target.
  std::unordered_map<VertexId, std::size_t, VertexIdHash> dist_to;
  std::deque<VertexId> queue{to};
  dist_to[to] = 0;
  while (!queue.empty()) {
    VertexId v = queue.front();
    queue.pop_front();
    for (VertexId u : adj.at(v)) {
      if (dist_to.count(u) == 0) {
        dist_to[u] = dist_to[v] + 1;
        queue.push_back(u);
      }
    }
  }
  if (dist_to.count(from) == 0) return std::nullopt;

  std::vector<VertexId> path{from};
  VertexId cur = from;
  while (cur != to) {
    const std::size_t d = dist_to.at(cur);
    VertexId best{std::numeric_limits<std::uint32_t>::max()};
    bool found = false;
    for (VertexId u : adj.at(cur)) {  // sorted, so first hit is lex-min
      auto it = dist_to.find(u);
      if (it != dist_to.end() && it->second + 1 == d) {
        best = u;
        found = true;
        break;
      }
    }
    if (!found) return std::nullopt;  // unreachable: dist structure is consistent
    path.push_back(best);
    cur = best;
  }
  return path;
}

std::vector<Chain> legacy_cycle_basis(const SimplicialComplex& k) {
  // Spanning forest via BFS; each non-tree edge closes one fundamental cycle.
  const auto adj = legacy_adjacency(k);
  std::unordered_map<VertexId, VertexId, VertexIdHash> parent;
  std::unordered_map<VertexId, bool, VertexIdHash> seen;
  std::vector<Chain> out;

  auto tree_path_to_root = [&](VertexId v) {
    std::vector<VertexId> path{v};
    while (parent.count(v) > 0 && parent.at(v) != v) {
      v = parent.at(v);
      path.push_back(v);
    }
    return path;
  };

  for (VertexId root : k.vertex_ids()) {
    if (seen[root]) continue;
    parent[root] = root;
    seen[root] = true;
    std::vector<VertexId> queue{root};
    std::size_t head = 0;
    while (head < queue.size()) {
      VertexId v = queue[head++];
      for (VertexId u : adj.at(v)) {
        if (!seen[u]) {
          seen[u] = true;
          parent[u] = v;
          queue.push_back(u);
        }
      }
    }
  }

  for (const Simplex& e : k.simplices(1)) {
    const VertexId a = e[0], b = e[1];
    if (parent.count(a) > 0 && (parent.at(a) == b || parent.at(b) == a)) continue;
    // Fundamental cycle: tree path a→root + edge {a,b} + tree path b→root;
    // shared prefix cancels over GF(2).
    Chain c{e};
    auto add_path = [&](const std::vector<VertexId>& p) {
      Chain edges;
      for (std::size_t i = 0; i + 1 < p.size(); ++i)
        edges.push_back(Simplex{p[i], p[i + 1]});
      c = chain_add(c, edges);
    };
    add_path(tree_path_to_root(a));
    add_path(tree_path_to_root(b));
    if (is_one_cycle(c)) out.push_back(std::move(c));
  }
  return out;
}

std::vector<OrientedChain> legacy_oriented_cycle_basis(const SimplicialComplex& k) {
  std::vector<OrientedChain> out;
  for (const Chain& c : legacy_cycle_basis(k)) {
    // A fundamental cycle is a simple closed walk; orient it by walking it.
    // Build adjacency within the cycle's edge set.
    std::unordered_map<VertexId, std::vector<VertexId>, VertexIdHash> adj;
    for (const Simplex& e : c) {
      adj[e[0]].push_back(e[1]);
      adj[e[1]].push_back(e[0]);
    }
    OrientedChain oriented;
    if (c.empty()) continue;
    const VertexId start = c.front()[0];
    VertexId prev = start, cur = c.front()[1];
    oriented_add_edge(oriented, prev, cur);
    while (cur != start) {
      const auto& nbrs = adj.at(cur);
      const VertexId next = nbrs[0] == prev ? nbrs[1] : nbrs[0];
      oriented_add_edge(oriented, cur, next);
      prev = cur;
      cur = next;
    }
    out.push_back(std::move(oriented));
  }
  return out;
}

BettiNumbers legacy_betti_numbers(const SimplicialComplex& k) {
  // Over any field rank ∂1 = V - b0; rank ∂2 is the span of the triangle
  // boundaries.
  BettiNumbers out;
  if (k.empty()) return out;
  const auto rank_d2 = static_cast<long long>(BoundarySpan(k, 2).rank());
  out.b0 = static_cast<long long>(legacy_connected_components(k).size());
  const long long rank_d1 = static_cast<long long>(k.count(0)) - out.b0;
  out.b1 = static_cast<long long>(k.count(1)) - rank_d1 - rank_d2;
  out.b2 = static_cast<long long>(k.count(2)) - rank_d2;
  return out;
}

// ---------------------------------------------------------------------------
// The hash-set engines (core/obstructions.cpp).
// ---------------------------------------------------------------------------

/// Node of a LAP-split graph: an output vertex together with a copy index
/// (0 for non-LAP vertices, 1-based link-component index for LAPs).
using SplitNode = std::pair<VertexId, int>;

/// Per-facet LAP component lookup: lap vertex y → (link vertex z → 1-based
/// index of the component of lk_{Δ(σ)}(y) containing z).
using LapComponents =
    std::unordered_map<VertexId, std::unordered_map<VertexId, int, VertexIdHash>,
                       VertexIdHash>;

LapComponents lap_components(const Task& task, const Simplex& sigma) {
  LapComponents out;
  for (const LapRecord& lap : find_laps(task, sigma)) {
    auto& comp = out[lap.vertex];
    const auto components = lap.link.groups();
    for (std::size_t i = 0; i < components.size(); ++i) {
      for (VertexId z : components[i]) comp.emplace(z, static_cast<int>(i + 1));
    }
  }
  return out;
}

/// Union-find over split nodes, built from the edges of a 1-complex with
/// every LAP "virtually split" per link component: traversing a LAP is only
/// possible within one component, which models crossing-free paths.
class SplitGraph {
 public:
  SplitGraph(const SimplicialComplex& k, const LapComponents& laps) {
    for (const Simplex& e : k.simplices(1)) {
      const SplitNode a = resolve(e[0], e[1], laps);
      const SplitNode b = resolve(e[1], e[0], laps);
      unite(index(a), index(b));
      ++edges_;
    }
    // Isolated vertices (no incident edges) still need nodes so endpoint
    // queries succeed; a LAP isolated in `k` gets a single neutral copy.
    for (VertexId v : k.vertex_ids()) {
      copies_of(v);
    }
  }

  /// All copies of `v` present in the graph.
  std::vector<SplitNode> copies_of(VertexId v) {
    std::vector<SplitNode> out;
    for (auto& [node, idx] : nodes_) {
      (void)idx;
      if (node.first == v) out.push_back(node);
    }
    if (out.empty()) {
      index(SplitNode{v, 0});
      out.push_back(SplitNode{v, 0});
    }
    return out;
  }

  bool connected(const SplitNode& a, const SplitNode& b) {
    return find(index(a)) == find(index(b));
  }

  /// Number of independent cycles: E - N + C.
  long long cycle_rank() {
    std::vector<int> roots;
    for (auto& [node, idx] : nodes_) {
      (void)node;
      roots.push_back(find(idx));
    }
    std::sort(roots.begin(), roots.end());
    roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
    return static_cast<long long>(edges_) - static_cast<long long>(nodes_.size()) +
           static_cast<long long>(roots.size());
  }

 private:
  static SplitNode resolve(VertexId v, VertexId neighbor, const LapComponents& laps) {
    auto it = laps.find(v);
    if (it == laps.end()) return {v, 0};
    return {v, it->second.at(neighbor)};
  }

  int index(const SplitNode& n) {
    auto it = nodes_.find(n);
    if (it != nodes_.end()) return it->second;
    const int idx = static_cast<int>(parent_.size());
    parent_.push_back(idx);
    nodes_.emplace(n, idx);
    return idx;
  }

  int find(int i) {
    while (parent_[static_cast<std::size_t>(i)] != i) {
      parent_[static_cast<std::size_t>(i)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(i)])];
      i = parent_[static_cast<std::size_t>(i)];
    }
    return i;
  }

  void unite(int a, int b) { parent_[static_cast<std::size_t>(find(a))] = find(b); }

  std::map<SplitNode, int> nodes_;
  std::vector<int> parent_;
  std::size_t edges_ = 0;
};

CorollaryResult legacy_corollary_5_5(const Task& task) {
  const VertexPool& pool = *task.pool;
  const int top = task.input.dimension();
  for (const Simplex& sigma : task.input.simplices(top)) {
    const LapComponents laps = lap_components(task, sigma);
    for (const Simplex& e : sigma.faces()) {
      if (e.dim() != 1) continue;
      const VertexId x = e[0], xp = e[1];
      SplitGraph graph(task.delta.image_complex(e), laps);
      bool some_pair_connected = false;
      for (VertexId y : task.delta.image_complex(Simplex::single(x)).vertex_ids()) {
        for (VertexId yp :
             task.delta.image_complex(Simplex::single(xp)).vertex_ids()) {
          for (const SplitNode& a : graph.copies_of(y)) {
            for (const SplitNode& b : graph.copies_of(yp)) {
              if (graph.connected(a, b)) some_pair_connected = true;
            }
          }
        }
      }
      if (!some_pair_connected) {
        CorollaryResult result;
        result.fires = true;
        result.detail = "facet " + sigma.to_string(pool) + ", edge " +
                        e.to_string(pool) +
                        ": every path between the solo images crosses a LAP";
        return result;
      }
    }
  }
  return {};
}

CorollaryResult legacy_corollary_5_6(const Task& task) {
  // Stated for a single-facet (single input triangle) task.
  const int top = task.input.dimension();
  const auto facets = task.input.simplices(top);
  if (facets.size() != 1 || top < 2) return {};
  const Simplex& sigma = facets.front();
  const VertexPool& pool = *task.pool;

  const LapComponents laps = lap_components(task, sigma);
  if (laps.empty()) return {};

  // Δ(Skel¹σ): the union of the edge images.
  SimplicialComplex skel_image;
  std::vector<Simplex> edges;
  for (const Simplex& e : sigma.faces()) {
    if (e.dim() == 1) {
      edges.push_back(e);
      skel_image.add_all(task.delta.image_complex(e));
    }
  }
  SplitGraph whole(skel_image, laps);
  if (whole.cycle_rank() > 0) {
    return {};  // a crossing-free cycle exists: the corollary's premise fails
  }

  // Every cycle crosses a LAP. The boundary walk must additionally close up
  // crossing-free: corner choices connected within each edge image.
  std::vector<SplitGraph> edge_graphs;
  edge_graphs.reserve(edges.size());
  for (const Simplex& e : edges) {
    edge_graphs.emplace_back(task.delta.image_complex(e), laps);
  }
  std::vector<std::vector<SplitNode>> corner_choices;
  for (VertexId x : sigma) {
    std::vector<SplitNode> choices;
    for (VertexId y : task.delta.image_complex(Simplex::single(x)).vertex_ids()) {
      auto copies = whole.copies_of(y);
      choices.insert(choices.end(), copies.begin(), copies.end());
    }
    corner_choices.push_back(std::move(choices));
  }
  // Exhaustive search over corner assignments (domains are tiny).
  std::vector<SplitNode> pick(sigma.size());
  std::function<bool(std::size_t)> feasible = [&](std::size_t i) -> bool {
    if (i == sigma.size()) return true;
    for (const SplitNode& node : corner_choices[i]) {
      pick[i] = node;
      bool ok = true;
      for (std::size_t j = 0; j < i && ok; ++j) {
        // Find the edge graph joining corners i and j.
        for (std::size_t k = 0; k < edges.size(); ++k) {
          if (edges[k].contains(sigma[i]) && edges[k].contains(sigma[j])) {
            if (!edge_graphs[k].connected(pick[i], pick[j])) ok = false;
          }
        }
      }
      if (ok && feasible(i + 1)) return true;
    }
    return false;
  };
  if (feasible(0)) return {};

  CorollaryResult result;
  result.fires = true;
  result.detail = "facet " + sigma.to_string(pool) +
                  ": every cycle in Δ(Skel¹I) crosses a LAP and no "
                  "crossing-free boundary walk closes up";
  return result;
}

/// Shared enumeration machinery for the corner-assignment engines. Calls
/// `accept` once per assignment that satisfies all per-edge connectivity
/// constraints; stops early if `accept` returns true.
struct CornerSearch {
  const Task& task;
  std::vector<VertexId> inputs;                 // input vertices, fixed order
  std::vector<std::vector<VertexId>> domains;   // Δ(x) vertices per input
  // Per input edge: its endpoints' input indices, the image complex and
  // each image vertex's component id.
  struct EdgeInfo {
    Simplex edge;
    std::size_t a = 0, b = 0;  // input indices of edge[0] and edge[1]
    SimplicialComplex image;
    std::unordered_map<VertexId, int, VertexIdHash> component;
    /// The image's oriented cycle basis; the homology check fills it on
    /// first use.
    std::optional<std::vector<OrientedChain>> cycles;
  };
  std::vector<EdgeInfo> edge_infos;
  // edges_touching[i] = indices into edge_infos of edges whose *second*
  // endpoint (in input order) is inputs[i].
  std::vector<std::vector<std::size_t>> edges_touching;

  std::size_t nodes_explored = 0;
  std::size_t node_cap = kDefaultCornerNodeCap;
  bool exhausted = true;

  explicit CornerSearch(const Task& t) : task(t) {
    inputs = task.input.vertex_ids();
    std::unordered_map<VertexId, std::size_t, VertexIdHash> input_index;
    for (std::size_t i = 0; i < inputs.size(); ++i) input_index.emplace(inputs[i], i);
    for (VertexId x : inputs) {
      domains.push_back(
          task.delta.image_complex(Simplex::single(x)).vertex_ids());
    }
    for (const Simplex& e : task.input.simplices(1)) {
      EdgeInfo info;
      info.edge = e;
      info.a = input_index.at(e[0]);
      info.b = input_index.at(e[1]);
      info.image = task.delta.image_complex(e);
      const auto comps = legacy_connected_components(info.image);
      for (std::size_t c = 0; c < comps.size(); ++c) {
        for (VertexId v : comps[c]) info.component.emplace(v, static_cast<int>(c));
      }
      edge_infos.push_back(std::move(info));
    }
    edges_touching.resize(inputs.size());
    for (std::size_t k = 0; k < edge_infos.size(); ++k) {
      edges_touching[std::max(edge_infos[k].a, edge_infos[k].b)].push_back(k);
    }
  }

  /// DFS over assignments; `accept(assignment)` is called for complete,
  /// edge-consistent assignments and may return true to stop the search.
  bool search(
      const std::function<bool(const std::vector<VertexId>&)>& accept) {
    std::vector<VertexId> assign(inputs.size(), VertexId{0});
    return dfs(0, assign, accept);
  }

 private:
  bool dfs(std::size_t i, std::vector<VertexId>& assign,
           const std::function<bool(const std::vector<VertexId>&)>& accept) {
    if (i == inputs.size()) return accept(assign);
    for (VertexId candidate : domains[i]) {
      if (++nodes_explored > node_cap) {
        exhausted = false;
        return false;
      }
      assign[i] = candidate;
      bool ok = true;
      for (std::size_t k : edges_touching[i]) {
        const EdgeInfo& info = edge_infos[k];
        auto ca = info.component.find(assign[info.a]);
        auto cb = info.component.find(assign[info.b]);
        if (ca == info.component.end() || cb == info.component.end() ||
            ca->second != cb->second) {
          ok = false;
          break;
        }
      }
      if (ok && dfs(i + 1, assign, accept)) return true;
    }
    return false;
  }
};

ConnectivityCsp legacy_connectivity_csp(const Task& task, std::size_t node_cap) {
  ConnectivityCsp result;
  CornerSearch search(task);
  search.node_cap = node_cap;
  const bool found = search.search([&](const std::vector<VertexId>& assign) {
    for (std::size_t i = 0; i < search.inputs.size(); ++i) {
      result.witness.emplace(search.inputs[i], assign[i]);
    }
    return true;
  });
  result.feasible = found;
  result.exhausted = search.exhausted;
  result.nodes_explored = search.nodes_explored;
  if (!found) {
    result.detail = search.exhausted
                        ? "no corner assignment is component-consistent on "
                          "every input edge"
                        : "search capped before exhausting assignments";
  }
  return result;
}

HomologyObstruction legacy_homology_boundary_check(const Task& task,
                                            const std::vector<long long>& primes,
                                            std::size_t node_cap) {
  HomologyObstruction result;
  CornerSearch search(task);
  search.node_cap = node_cap;
  const VertexPool& pool = *task.pool;

  // Per input facet: its boundary edges in cyclic order (v0→v1, v1→v2,
  // v2→v0), the facet image, and one span per prime. The boundary loop is
  // checked over every prime in `primes`: a loop extending over the input
  // disk bounds over every field, and GF(3) catches even-winding
  // ("torsion-type") failures GF(2) is blind to.
  struct FacetInfo {
    Simplex facet;
    SimplicialComplex image;
    // (edge-info index, from, to), with from/to as input indices, in
    // coherent cyclic order.
    std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> boundary;
    // spans[i]: the image's triangle boundaries plus the boundary edges'
    // cycle bases over GF(primes[i]), built on first use.
    std::vector<std::optional<BoundarySpan>> spans;
  };
  std::vector<FacetInfo> facet_infos;
  // The boundary-loop analysis is specific to 2-dimensional facets (the
  // paper's three-process setting); for other dimensions the check reduces
  // to the connectivity CSP, which is sound for any n.
  const int top = task.input.dimension();
  if (top == 2) {
    for (const Simplex& sigma : task.input.simplices(top)) {
      FacetInfo info;
      info.facet = sigma;
      info.image = task.delta.image_complex(sigma);
      info.spans.resize(primes.size());
      const std::array<std::pair<VertexId, VertexId>, 3> order{
          std::pair{sigma[0], sigma[1]}, std::pair{sigma[1], sigma[2]},
          std::pair{sigma[2], sigma[0]}};
      for (const auto& [from, to] : order) {
        const Simplex e{from, to};
        for (std::size_t k = 0; k < search.edge_infos.size(); ++k) {
          const auto& einfo = search.edge_infos[k];
          if (einfo.edge == e) {
            const bool forward = einfo.edge[0] == from;
            info.boundary.emplace_back(k, forward ? einfo.a : einfo.b,
                                       forward ? einfo.b : einfo.a);
          }
        }
      }
      facet_infos.push_back(std::move(info));
    }
  }

  // Lazy, so no span is built that a loop check never asks for: the work
  // order stays that of eliminating at each check.
  auto span = [&](FacetInfo& info, std::size_t i) -> const BoundarySpan& {
    std::optional<BoundarySpan>& s = info.spans[i];
    if (!s) {
      s.emplace(info.image, primes[i]);
      for (const auto& [k, from, to] : info.boundary) {
        auto& einfo = search.edge_infos[k];
        if (!einfo.cycles) einfo.cycles = legacy_oriented_cycle_basis(einfo.image);
        for (const OrientedChain& g : *einfo.cycles) s->add(g);
      }
    }
    return *s;
  };

  std::string last_failure;
  const bool found = search.search([&](const std::vector<VertexId>& assign) {
    for (FacetInfo& info : facet_infos) {
      // Boundary loop: corner-to-corner shortest paths inside each edge
      // image, concatenated head-to-tail (any path works; other choices
      // differ by edge-image cycles, which are in the generator span).
      OrientedChain loop;
      for (const auto& [k, from, to] : info.boundary) {
        const auto path = legacy_lex_min_shortest_path(search.edge_infos[k].image,
                                                assign[from], assign[to]);
        if (!path.has_value()) return false;  // defensive; CSP ensured this
        for (std::size_t i = 0; i + 1 < path->size(); ++i) {
          oriented_add_edge(loop, (*path)[i], (*path)[i + 1]);
        }
      }
      if (!is_oriented_cycle(loop)) {
        last_failure = "boundary walk of facet " + info.facet.to_string(pool) +
                       " does not close into a cycle";
        return false;
      }
      for (std::size_t i = 0; i < primes.size(); ++i) {
        if (!loop.empty() && !span(info, i).contains(loop)) {
          last_failure = "boundary loop of facet " + info.facet.to_string(pool) +
                         " never bounds over GF(" + std::to_string(primes[i]) + ")";
          return false;
        }
      }
    }
    return true;
  });
  result.feasible = found;
  result.exhausted = search.exhausted;
  result.nodes_explored = search.nodes_explored;
  if (!found) {
    // A capped search proves nothing, whatever the last rejection was.
    if (!search.exhausted) {
      result.detail = "search capped before exhausting assignments";
    } else if (last_failure.empty()) {
      result.detail = "no corner assignment passes the connectivity CSP";
    } else {
      result.detail = last_failure;
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// The comparison.
// ---------------------------------------------------------------------------

/// A corollary's outcome, or the exception it threw.
std::string outcome(const std::function<CorollaryResult()>& run) {
  try {
    const CorollaryResult r = run();
    return (r.fires ? "fires: " : "silent: ") + r.detail;
  } catch (const std::out_of_range&) {
    return "out_of_range";
  }
}

std::map<std::uint32_t, std::uint32_t> sorted(
    const std::unordered_map<VertexId, VertexId, VertexIdHash>& witness) {
  std::map<std::uint32_t, std::uint32_t> out;
  for (const auto& [x, y] : witness) out.emplace(raw(x), raw(y));
  return out;
}

void expect_same_betti(const SimplicialComplex& k, const std::string& label) {
  const BettiNumbers a = legacy_betti_numbers(k), b = betti_numbers(k);
  EXPECT_EQ(a.b0, b.b0) << label;
  EXPECT_EQ(a.b1, b.b1) << label;
  EXPECT_EQ(a.b2, b.b2) << label;
}

/// Counts what the sweep exercised, so it cannot pass vacuously.
struct Coverage {
  std::size_t csp_infeasible = 0;
  std::size_t capped = 0;
  std::size_t homology_refuted = 0;
  std::size_t corollary_fired = 0;
};

void expect_same_engines(const Task& task, const std::string& label, Coverage& seen) {
  // Catalog searches take at most a few dozen nodes, random draws a few
  // hundred: the small caps stop some of each early.
  for (std::size_t cap : {kDefaultCornerNodeCap, std::size_t{50}, std::size_t{10}}) {
    const std::string at = label + " cap " + std::to_string(cap);
    const ConnectivityCsp a = legacy_connectivity_csp(task, cap);
    const ConnectivityCsp b = connectivity_csp(task, cap);
    EXPECT_EQ(a.feasible, b.feasible) << at;
    EXPECT_EQ(a.exhausted, b.exhausted) << at;
    EXPECT_EQ(a.nodes_explored, b.nodes_explored) << at;
    EXPECT_EQ(sorted(a.witness), sorted(b.witness)) << at;
    EXPECT_EQ(a.detail, b.detail) << at;
    seen.csp_infeasible += !b.feasible && b.exhausted;
    seen.capped += !b.exhausted;

    const HomologyObstruction c = legacy_homology_boundary_check(task, {2, 3}, cap);
    const HomologyObstruction d = homology_boundary_check(task, {2, 3}, cap);
    EXPECT_EQ(c.feasible, d.feasible) << at;
    EXPECT_EQ(c.exhausted, d.exhausted) << at;
    EXPECT_EQ(c.nodes_explored, d.nodes_explored) << at;
    EXPECT_EQ(c.detail, d.detail) << at;
    seen.homology_refuted += b.feasible && !d.feasible && d.exhausted;
    seen.capped += !d.exhausted;
  }
  const std::string c55 = outcome([&] { return corollary_5_5(task); });
  const std::string c56 = outcome([&] { return corollary_5_6(task); });
  EXPECT_EQ(outcome([&] { return legacy_corollary_5_5(task); }), c55) << label;
  EXPECT_EQ(outcome([&] { return legacy_corollary_5_6(task); }), c56) << label;
  seen.corollary_fired += c55.starts_with("fires") || c56.starts_with("fires");
  expect_same_betti(task.output, label + " output");
}

void expect_same_on_both_tasks(const Task& task, const std::string& label, Coverage& seen) {
  if (task.num_processes == 2) {
    // Section 4's splitting needs three processes: T* and no T′.
    expect_same_engines(canonicalize(task), label + " T*", seen);
    return;
  }
  const CharacterizationResult ch = characterize(task);
  expect_same_engines(ch.canonical, label + " T*", seen);
  expect_same_engines(ch.link_connected, label + " T'", seen);
}

TEST(ObstructionOracle, CatalogMatchesHashSetEngines) {
  Coverage seen;
  for (const zoo::CatalogEntry& entry : zoo::catalog()) {
    expect_same_on_both_tasks(entry.build(), entry.name, seen);
  }
  EXPECT_GT(seen.csp_infeasible, 0u);
  EXPECT_GT(seen.capped, 0u);
  EXPECT_GT(seen.homology_refuted, 0u);
  EXPECT_GT(seen.corollary_fired, 0u);
}

TEST(ObstructionOracle, SeededDrawsMatchHashSetEngines) {
  // Three draws of each shape: 1–4 input facets, 2–4 output values per
  // color, restricted faces on/off (the shapes of SplitOracleRandom).
  Coverage seen;
  for (int facets = 1; facets <= 4; ++facets) {
    for (int values = 2; values <= 4; ++values) {
      for (bool restricted : {false, true}) {
        for (std::uint64_t seed = 0; seed < 3; ++seed) {
          zoo::RandomTaskParams params;
          params.num_input_facets = facets;
          params.output_values_per_color = values;
          params.restricted_faces = restricted;
          params.seed = 7919 * seed + 100 * static_cast<std::uint64_t>(facets) +
                        10 * static_cast<std::uint64_t>(values) + (restricted ? 1 : 0);
          const Task task = zoo::random_task(params);
          expect_same_on_both_tasks(
              task, task.name + " seed " + std::to_string(params.seed), seen);
        }
      }
    }
  }
  EXPECT_GT(seen.csp_infeasible, 0u);
  EXPECT_GT(seen.capped, 0u);
  EXPECT_GT(seen.homology_refuted, 0u);
  EXPECT_GT(seen.corollary_fired, 0u);
}

}  // namespace
}  // namespace trichroma
