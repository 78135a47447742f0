#include "core/obstructions.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "core/lap.h"
#include "topology/compiled.h"
#include "topology/graph.h"
#include "topology/homology.h"

// Every engine reads Δ as facet lists (delta.facet_images), never as a
// hash-set image complex: vertex lists are sorted facet vertices, components
// a union-find over a facet list, and the homology check's paths and spans
// the compiled edge images and the facet-list BoundarySpan.

namespace trichroma {

namespace {

bool by_id(VertexId a, VertexId b) { return raw(a) < raw(b); }

/// The vertices of Δ(τ) sorted by id: the vertex_ids() of its closure.
std::vector<VertexId> image_vertices(const Task& task, const Simplex& tau) {
  std::vector<VertexId> out;
  for (const Simplex& f : task.delta.facet_images(tau)) {
    out.insert(out.end(), f.begin(), f.end());
  }
  std::sort(out.begin(), out.end(), by_id);
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// The input vertices in id order, each with the vertices of its solo image
/// Δ({x}), computed once per input vertex.
struct SoloImages {
  std::vector<VertexId> inputs;
  std::vector<std::vector<VertexId>> values;

  explicit SoloImages(const Task& task) : inputs(task.input.vertex_ids()) {
    for (VertexId x : inputs) values.push_back(image_vertices(task, Simplex::single(x)));
  }
  /// Index of the input vertex `x`.
  std::size_t index(VertexId x) const {
    return static_cast<std::size_t>(
        std::lower_bound(inputs.begin(), inputs.end(), x, by_id) - inputs.begin());
  }
};

/// Node of a LAP-split graph: an output vertex together with a copy index
/// (0 for non-LAP vertices, 1-based link-component index for LAPs).
using SplitNode = std::pair<VertexId, int>;

/// The node of `v` on its edge to `neighbor`, given the LAPs w.r.t. σ in
/// vertex-id order: copy 0 unless `v` is a LAP, else the 1-based component
/// of `neighbor` in v's link. A neighbor outside the link (Δ not monotone)
/// throws std::out_of_range.
SplitNode resolve(const std::vector<LapRecord>& laps, VertexId v, VertexId neighbor) {
  const auto it = std::lower_bound(
      laps.begin(), laps.end(), v,
      [](const LapRecord& lap, VertexId x) { return raw(lap.vertex) < raw(x); });
  if (it == laps.end() || it->vertex != v) return {v, 0};
  const std::int32_t component = it->link.of(neighbor);
  if (component < 0) {
    throw std::out_of_range("LAP-split graph: an edge leaves the LAP's link");
  }
  return {v, component + 1};
}

/// The closure of a facet list with every LAP "virtually split" per link
/// component: traversing a LAP is only possible within one component, which
/// models crossing-free paths. The nodes are the sorted (vertex, copy)
/// pairs resolved from the edges, plus a neutral copy 0 for each vertex
/// without edges, joined by a union-find.
class SplitGraph {
 public:
  SplitGraph(const std::vector<Simplex>& facets, const std::vector<LapRecord>& laps)
      : sets_(0) {
    std::vector<std::pair<VertexId, VertexId>> edges;
    std::vector<VertexId> vertices;
    for (const Simplex& f : facets) {
      vertices.insert(vertices.end(), f.begin(), f.end());
      for (std::size_t i = 0; i < f.size(); ++i) {
        for (std::size_t j = i + 1; j < f.size(); ++j) edges.emplace_back(f[i], f[j]);
      }
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    std::sort(vertices.begin(), vertices.end(), by_id);
    vertices.erase(std::unique(vertices.begin(), vertices.end()), vertices.end());

    std::vector<std::pair<SplitNode, SplitNode>> joins;
    std::vector<VertexId> ends;
    for (const auto& [u, v] : edges) {
      const auto& [a, b] = joins.emplace_back(resolve(laps, u, v), resolve(laps, v, u));
      nodes_.insert(nodes_.end(), {a, b});
      ends.insert(ends.end(), {u, v});
    }
    std::sort(ends.begin(), ends.end(), by_id);
    std::vector<VertexId> isolated;
    std::set_difference(vertices.begin(), vertices.end(), ends.begin(), ends.end(),
                        std::back_inserter(isolated), by_id);
    for (VertexId v : isolated) nodes_.emplace_back(v, 0);
    std::sort(nodes_.begin(), nodes_.end());
    nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
    sets_ = UnionFind(nodes_.size());
    for (const auto& [a, b] : joins) sets_.unite(index(a), index(b));
    edges_ = edges.size();
  }

  /// The indices [first, last) of the copies of `v`; empty if `v` is no
  /// vertex of the graph.
  std::pair<std::uint32_t, std::uint32_t> copies_of(VertexId v) const {
    const auto lo = std::lower_bound(nodes_.begin(), nodes_.end(), SplitNode{v, 0});
    auto hi = lo;
    while (hi != nodes_.end() && hi->first == v) ++hi;
    return {static_cast<std::uint32_t>(lo - nodes_.begin()),
            static_cast<std::uint32_t>(hi - nodes_.begin())};
  }

  const SplitNode& node(std::uint32_t i) const { return nodes_[i]; }
  std::uint32_t root(std::uint32_t i) { return sets_.find(i); }

  /// True iff `a` and `b` are joined. A node the graph lacks stands alone,
  /// so it is joined only to itself.
  bool connected(const SplitNode& a, const SplitNode& b) {
    const std::uint32_t i = index(a), j = index(b);
    if (i == nodes_.size() || j == nodes_.size()) return a == b;
    return sets_.find(i) == sets_.find(j);
  }

  /// Number of independent cycles: E - N + C.
  long long cycle_rank() const {
    return static_cast<long long>(edges_) - static_cast<long long>(nodes_.size()) +
           static_cast<long long>(sets_.count());
  }

 private:
  /// Index of `n` in nodes_, or nodes_.size() if absent.
  std::uint32_t index(const SplitNode& n) const {
    const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), n);
    return static_cast<std::uint32_t>(it != nodes_.end() && *it == n ? it - nodes_.begin()
                                                                     : nodes_.size());
  }

  std::vector<SplitNode> nodes_;  // sorted
  UnionFind sets_;
  std::size_t edges_ = 0;
};

}  // namespace

CorollaryResult corollary_5_5(const Task& task) {
  const VertexPool& pool = *task.pool;
  const int top = task.input.dimension();
  const SoloImages solo(task);
  for (const Simplex& sigma : task.input.simplices(top)) {
    const std::vector<LapRecord> laps = find_laps(task, sigma);
    for (const Simplex& e : sigma.faces()) {
      if (e.dim() != 1) continue;
      SplitGraph graph(task.delta.facet_images(e), laps);
      // The components reached by the copies of Δ({x})'s vertices. A vertex
      // outside Δ(e) (split tasks relax vertex-level monotonicity) is a
      // node of its own, so its key matches only the same vertex reached
      // from Δ({x′}), which a colorless task can have.
      const auto reached = [&](VertexId x) {
        std::vector<std::uint64_t> keys;
        for (VertexId y : solo.values[solo.index(x)]) {
          const auto [first, last] = graph.copies_of(y);
          if (first == last) keys.push_back((std::uint64_t{1} << 32) | raw(y));
          for (std::uint32_t i = first; i < last; ++i) keys.push_back(graph.root(i));
        }
        std::sort(keys.begin(), keys.end());
        return keys;
      };
      const std::vector<std::uint64_t> from = reached(e[0]), to = reached(e[1]);
      std::vector<std::uint64_t> shared;
      std::set_intersection(from.begin(), from.end(), to.begin(), to.end(),
                            std::back_inserter(shared));
      if (shared.empty()) {
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

  const std::vector<LapRecord> laps = find_laps(task, sigma);
  if (laps.empty()) return {};

  // Δ(Skel¹σ): the union of the edge images.
  std::vector<Simplex> edges;
  std::vector<Simplex> skel_image;
  for (const Simplex& e : sigma.faces()) {
    if (e.dim() == 1) {
      edges.push_back(e);
      const auto& image = task.delta.facet_images(e);
      skel_image.insert(skel_image.end(), image.begin(), image.end());
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
    edge_graphs.emplace_back(task.delta.facet_images(e), laps);
  }
  std::vector<std::vector<SplitNode>> corner_choices;
  for (VertexId x : sigma) {
    std::vector<SplitNode> choices;
    for (VertexId y : image_vertices(task, Simplex::single(x))) {
      const auto [first, last] = whole.copies_of(y);
      if (first == last) choices.emplace_back(y, 0);  // outside Δ(Skel¹σ)
      for (std::uint32_t i = first; i < last; ++i) choices.push_back(whole.node(i));
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
/// constraints; stops early if `accept` returns true. An assignment picks
/// for each input vertex an index into its domain, the sorted vertices of
/// its solo image.
struct CornerSearch {
  using Pick = std::vector<std::size_t>;

  SoloImages solo;  // the inputs in id order and their domains
  // Per input edge: its endpoints' input indices and, for each domain value
  // of either endpoint, its component in the edge's image, or -1 when the
  // image does not hold it.
  struct EdgeInfo {
    Simplex edge;
    std::size_t a = 0, b = 0;  // input indices of edge[0] and edge[1]
    std::vector<std::int32_t> component_a, component_b;
  };
  std::vector<EdgeInfo> edge_infos;
  // edges_touching[i] = indices into edge_infos of edges whose *second*
  // endpoint (in input order) is solo.inputs[i].
  std::vector<std::vector<std::size_t>> edges_touching;

  std::size_t nodes_explored = 0;
  std::size_t node_cap = kDefaultCornerNodeCap;
  bool exhausted = true;

  explicit CornerSearch(const Task& task) : solo(task) {
    for (const Simplex& e : task.input.simplices(1)) {
      EdgeInfo info;
      info.edge = e;
      info.a = solo.index(e[0]);
      info.b = solo.index(e[1]);
      const ComponentLabels image = component_labels(task.delta.facet_images(e));
      for (VertexId y : solo.values[info.a]) info.component_a.push_back(image.of(y));
      for (VertexId y : solo.values[info.b]) info.component_b.push_back(image.of(y));
      edge_infos.push_back(std::move(info));
    }
    edges_touching.resize(solo.inputs.size());
    for (std::size_t k = 0; k < edge_infos.size(); ++k) {
      edges_touching[std::max(edge_infos[k].a, edge_infos[k].b)].push_back(k);
    }
  }

  /// The value `pick` assigns to input `i`.
  VertexId value(const Pick& pick, std::size_t i) const { return solo.values[i][pick[i]]; }

  /// DFS over assignments; `accept(pick)` is called for complete,
  /// edge-consistent assignments and may return true to stop the search.
  bool search(const std::function<bool(const Pick&)>& accept) {
    Pick pick(solo.inputs.size(), 0);
    return dfs(0, pick, accept);
  }

 private:
  bool dfs(std::size_t i, Pick& pick, const std::function<bool(const Pick&)>& accept) {
    if (i == solo.inputs.size()) return accept(pick);
    for (std::size_t candidate = 0; candidate < solo.values[i].size(); ++candidate) {
      if (++nodes_explored > node_cap) {
        exhausted = false;
        return false;
      }
      pick[i] = candidate;
      bool ok = true;
      for (std::size_t k : edges_touching[i]) {
        const EdgeInfo& info = edge_infos[k];
        const std::int32_t ca = info.component_a[pick[info.a]];
        if (ca < 0 || ca != info.component_b[pick[info.b]]) {
          ok = false;
          break;
        }
      }
      if (ok && dfs(i + 1, pick, accept)) return true;
    }
    return false;
  }
};

}  // namespace

ConnectivityCsp connectivity_csp(const Task& task, std::size_t node_cap) {
  ConnectivityCsp result;
  CornerSearch search(task);
  search.node_cap = node_cap;
  const bool found = search.search([&](const CornerSearch::Pick& pick) {
    for (std::size_t i = 0; i < search.solo.inputs.size(); ++i) {
      result.witness.emplace(search.solo.inputs[i], search.value(pick, i));
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

  // Per input facet: its boundary edges in cyclic order (v0→v1, v1→v2,
  // v2→v0) and one span per prime. The boundary loop is checked over every
  // prime in `primes`: a loop extending over the input disk bounds over
  // every field, and GF(3) catches even-winding ("torsion-type") failures
  // GF(2) is blind to.
  struct FacetInfo {
    Simplex facet;
    // (edge-info index, from, to), with from/to as input indices, in
    // coherent cyclic order.
    std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> boundary;
    // The image's edges and triangles, gathered once for every prime.
    std::optional<BoundarySpan::Cells> cells;
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

  // Per input edge, on first use: its image compiled from the facet list
  // (the paths walk its ascending neighbor rows) and its cycle basis.
  struct EdgeImage {
    std::shared_ptr<const CompiledComplex> image;
    std::optional<std::vector<OrientedChain>> cycles;
  };
  std::vector<EdgeImage> edge_images(search.edge_infos.size());
  auto edge_image = [&](std::size_t k) -> EdgeImage& {
    EdgeImage& edge = edge_images[k];
    if (!edge.image) {
      edge.image = CompiledComplex::of_facets(
          task.delta.facet_images(search.edge_infos[k].edge));
    }
    return edge;
  };

  // Lazy, so no span is built that a loop check never asks for: the work
  // order stays that of eliminating at each check.
  auto span = [&](FacetInfo& info, std::size_t i) -> const BoundarySpan& {
    std::optional<BoundarySpan>& s = info.spans[i];
    if (!s) {
      if (!info.cells) info.cells = BoundarySpan::Cells::of(task.delta.facet_images(info.facet));
      s.emplace(*info.cells, primes[i]);
      for (const auto& [k, from, to] : info.boundary) {
        EdgeImage& edge = edge_image(k);
        if (!edge.cycles) edge.cycles = oriented_cycle_basis(*edge.image);
        for (const OrientedChain& g : *edge.cycles) s->add(g);
      }
    }
    return *s;
  };

  std::string last_failure;
  const bool found = search.search([&](const CornerSearch::Pick& pick) {
    for (FacetInfo& info : facet_infos) {
      // Boundary loop: corner-to-corner shortest paths inside each edge
      // image, concatenated head-to-tail (any path works; other choices
      // differ by edge-image cycles, which are in the generator span).
      OrientedChain loop;
      for (const auto& [k, from, to] : info.boundary) {
        const auto path = lex_min_shortest_path(*edge_image(k).image,
                                                search.value(pick, from),
                                                search.value(pick, to));
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

}  // namespace trichroma
