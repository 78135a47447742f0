#include "core/obstructions.h"

#include <algorithm>
#include <array>
#include <tuple>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "core/lap.h"
#include "topology/graph.h"
#include "topology/homology.h"

namespace trichroma {

namespace {

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
    for (std::size_t i = 0; i < lap.link_components.size(); ++i) {
      for (VertexId z : lap.link_components[i]) {
        comp.emplace(z, static_cast<int>(i + 1));
      }
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

}  // namespace

CorollaryResult corollary_5_5(const Task& task) {
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

CorollaryResult corollary_5_6(const Task& task) {
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

namespace {

/// Shared enumeration machinery for the corner-assignment engines. Calls
/// `accept` once per assignment that satisfies all per-edge connectivity
/// constraints; stops early if `accept` returns true.
struct CornerSearch {
  const Task& task;
  std::vector<VertexId> inputs;                 // input vertices, fixed order
  std::unordered_map<VertexId, std::size_t, VertexIdHash> input_index;
  std::vector<std::vector<VertexId>> domains;   // Δ(x) vertices per input
  // Per input edge: the image complex and each image vertex's component id.
  struct EdgeInfo {
    Simplex edge;
    SimplicialComplex image;
    std::unordered_map<VertexId, int, VertexIdHash> component;
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
    for (std::size_t i = 0; i < inputs.size(); ++i) input_index.emplace(inputs[i], i);
    for (VertexId x : inputs) {
      domains.push_back(
          task.delta.image_complex(Simplex::single(x)).vertex_ids());
    }
    for (const Simplex& e : task.input.simplices(1)) {
      EdgeInfo info;
      info.edge = e;
      info.image = task.delta.image_complex(e);
      const auto comps = connected_components(info.image);
      for (std::size_t c = 0; c < comps.size(); ++c) {
        for (VertexId v : comps[c]) info.component.emplace(v, static_cast<int>(c));
      }
      edge_infos.push_back(std::move(info));
    }
    edges_touching.resize(inputs.size());
    for (std::size_t k = 0; k < edge_infos.size(); ++k) {
      const Simplex& e = edge_infos[k].edge;
      const std::size_t i = input_index.at(e[0]), j = input_index.at(e[1]);
      edges_touching[std::max(i, j)].push_back(k);
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
        const std::size_t a = input_index.at(info.edge[0]);
        const std::size_t b = input_index.at(info.edge[1]);
        const VertexId va = assign[a], vb = assign[b];
        auto ca = info.component.find(va), cb = info.component.find(vb);
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

}  // namespace

ConnectivityCsp connectivity_csp(const Task& task, std::size_t node_cap) {
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

HomologyObstruction homology_boundary_check(const Task& task,
                                            const std::vector<long long>& primes,
                                            std::size_t node_cap) {
  HomologyObstruction result;
  CornerSearch search(task);
  search.node_cap = node_cap;
  const VertexPool& pool = *task.pool;

  // Pre-compute, per input facet, its boundary edges in cyclic order
  // (v0→v1, v1→v2, v2→v0), each edge's oriented cycle basis, and the facet
  // image. The boundary loop is checked over GF(2) *and* GF(3): a loop
  // extending over the input disk bounds over every field, and GF(3)
  // catches even-winding ("torsion-type") failures GF(2) is blind to.
  struct FacetInfo {
    Simplex facet;
    SimplicialComplex image;
    // (edge-info index, from-vertex, to-vertex) in coherent cyclic order.
    std::vector<std::tuple<std::size_t, VertexId, VertexId>> boundary;
    std::vector<OrientedChain> generators;
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
      const std::array<std::pair<VertexId, VertexId>, 3> order{
          std::pair{sigma[0], sigma[1]}, std::pair{sigma[1], sigma[2]},
          std::pair{sigma[2], sigma[0]}};
      for (const auto& [from, to] : order) {
        const Simplex e{from, to};
        for (std::size_t k = 0; k < search.edge_infos.size(); ++k) {
          if (search.edge_infos[k].edge == e) {
            info.boundary.emplace_back(k, from, to);
            for (OrientedChain& c :
                 oriented_cycle_basis(search.edge_infos[k].image)) {
              info.generators.push_back(std::move(c));
            }
          }
        }
      }
      facet_infos.push_back(std::move(info));
    }
  }

  std::string last_failure;
  const bool found = search.search([&](const std::vector<VertexId>& assign) {
    for (const FacetInfo& info : facet_infos) {
      // Boundary loop: corner-to-corner shortest paths inside each edge
      // image, concatenated head-to-tail (any path works; other choices
      // differ by edge-image cycles, which are in the generator span).
      OrientedChain loop;
      for (const auto& [k, from, to] : info.boundary) {
        const auto& einfo = search.edge_infos[k];
        const VertexId a = assign[search.input_index.at(from)];
        const VertexId b = assign[search.input_index.at(to)];
        auto path = lex_min_shortest_path(einfo.image, a, b);
        if (!path.has_value()) return false;  // defensive; CSP ensured this
        loop = oriented_add(loop, oriented_path_chain(*path));
      }
      if (!is_oriented_cycle(loop)) {
        last_failure = "boundary walk of facet " + info.facet.to_string(pool) +
                       " does not close into a cycle";
        return false;
      }
      for (const long long p : primes) {
        if (!loop.empty() && !bounds_modulo_p(info.image, loop, info.generators, p)) {
          last_failure = "boundary loop of facet " + info.facet.to_string(pool) +
                         " never bounds over GF(" + std::to_string(p) + ")";
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
    result.detail = last_failure.empty()
                        ? "no corner assignment passes the connectivity CSP"
                        : last_failure;
  }
  return result;
}

}  // namespace trichroma
