#include "topology/graph.h"

#include <algorithm>

namespace trichroma {

namespace {

bool by_id(VertexId a, VertexId b) { return raw(a) < raw(b); }

}  // namespace

std::vector<std::uint32_t> UnionFind::labels() {
  // A set's number waits in its root's entry until the loop reaches the
  // root, which keeps it.
  constexpr std::uint32_t kUnset = 0xffffffffu;
  std::vector<std::uint32_t> label(parent_.size(), kUnset);
  std::uint32_t next = 0;
  for (std::uint32_t i = 0; i < label.size(); ++i) {
    std::uint32_t& l = label[find(i)];
    if (l == kUnset) l = next++;
    label[i] = l;
  }
  return label;
}

std::int32_t ComponentLabels::of(VertexId v) const {
  const auto it = std::lower_bound(vertices.begin(), vertices.end(), v, by_id);
  if (it == vertices.end() || *it != v) return -1;
  return static_cast<std::int32_t>(label[static_cast<std::size_t>(it - vertices.begin())]);
}

ComponentLabels component_labels(const std::vector<Simplex>& facets) {
  ComponentLabels out;
  for (const Simplex& f : facets) out.vertices.insert(out.vertices.end(), f.begin(), f.end());
  std::sort(out.vertices.begin(), out.vertices.end(), by_id);
  out.vertices.erase(std::unique(out.vertices.begin(), out.vertices.end()),
                     out.vertices.end());
  const auto index = [&](VertexId v) {
    return static_cast<std::uint32_t>(
        std::lower_bound(out.vertices.begin(), out.vertices.end(), v, by_id) -
        out.vertices.begin());
  };
  // A facet's vertices share a component.
  UnionFind sets(out.vertices.size());
  for (const Simplex& f : facets) {
    for (std::size_t i = 1; i < f.size(); ++i) sets.unite(index(f[0]), index(f[i]));
  }
  // Vertices are sorted, so the components are numbered by smallest vertex.
  out.label = sets.labels();
  out.count = sets.count();
  return out;
}

std::vector<std::vector<VertexId>> ComponentLabels::groups() const {
  std::vector<std::vector<VertexId>> components(count);
  for (std::size_t i = 0; i < vertices.size(); ++i) components[label[i]].push_back(vertices[i]);
  return components;
}

ComponentLabels link_labels(const std::vector<Simplex>& facets, VertexId y) {
  std::vector<Simplex> link;
  for (const Simplex& rho : facets) {
    if (rho.contains(y)) link.push_back(rho.without(y));
  }
  return component_labels(link);
}

std::vector<std::vector<VertexId>> connected_components(const std::vector<Simplex>& facets) {
  return component_labels(facets).groups();
}

std::vector<std::vector<VertexId>> connected_components(const SimplicialComplex& k) {
  std::vector<Simplex> skeleton;
  k.for_each([&](const Simplex& s) {
    if (s.size() <= 2) skeleton.push_back(s);
  });
  return connected_components(skeleton);
}

std::size_t component_count(const SimplicialComplex& k) {
  return connected_components(k).size();
}

bool is_connected(const SimplicialComplex& k) { return component_count(k) == 1; }

bool same_component(const SimplicialComplex& k, VertexId a, VertexId b) {
  for (const auto& comp : connected_components(k)) {
    if (std::binary_search(comp.begin(), comp.end(), a, by_id)) {
      return std::binary_search(comp.begin(), comp.end(), b, by_id);
    }
  }
  return false;
}

std::shared_ptr<const CompiledComplex> compile_one_skeleton(const SimplicialComplex& k) {
  CompiledComplex::Builder builder;
  k.for_each([&](const Simplex& s) {
    if (s.size() <= 2) builder.add(s);
  });
  return builder.finish();
}

void breadth_first(const CompiledComplex& k, CompiledComplex::Local root,
                   std::vector<std::int32_t>& dist,
                   std::vector<CompiledComplex::Local>& parent) {
  using Local = CompiledComplex::Local;
  std::vector<Local> queue{root};
  dist[static_cast<std::size_t>(root)] = 0;
  parent[static_cast<std::size_t>(root)] = root;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Local v = queue[head];
    const Local* row = k.neighbors(v);
    for (std::size_t i = 0; i < k.degree(v); ++i) {
      const auto u = static_cast<std::size_t>(row[i]);
      if (dist[u] >= 0) continue;
      dist[u] = dist[static_cast<std::size_t>(v)] + 1;
      parent[u] = v;
      queue.push_back(row[i]);
    }
  }
}

std::optional<std::vector<VertexId>> lex_min_shortest_path(const CompiledComplex& k,
                                                           VertexId from, VertexId to) {
  using Local = CompiledComplex::Local;
  const Local source = k.local(from), target = k.local(to);
  if (source == CompiledComplex::kAbsent || target == CompiledComplex::kAbsent) {
    return std::nullopt;
  }
  if (from == to) return std::vector<VertexId>{from};

  // BFS from `to` gives every vertex its distance to the target; then the
  // lexicographically-smallest shortest path is built greedily from `from`,
  // always stepping to the smallest neighbor one step closer to the target.
  std::vector<std::int32_t> dist_to(k.num_vertices(), -1);
  std::vector<Local> parent(k.num_vertices());
  breadth_first(k, target, dist_to, parent);
  if (dist_to[static_cast<std::size_t>(source)] < 0) return std::nullopt;

  std::vector<VertexId> path{from};
  for (Local cur = source; cur != target;) {
    const std::int32_t d = dist_to[static_cast<std::size_t>(cur)];
    const Local* row = k.neighbors(cur);  // ascending, so the first hit is lex-min
    cur = *std::find_if(row, row + k.degree(cur), [&](Local u) {
      return dist_to[static_cast<std::size_t>(u)] + 1 == d;
    });
    path.push_back(k.vertex(cur));
  }
  return path;
}

std::optional<std::vector<VertexId>> lex_min_shortest_path(const SimplicialComplex& k,
                                                           VertexId from, VertexId to) {
  return lex_min_shortest_path(*compile_one_skeleton(k), from, to);
}

std::optional<std::vector<VertexId>> lex_min_shortest_path_symmetric(
    const SimplicialComplex& k, VertexId from, VertexId to) {
  // Canonicalize by orienting from the smaller endpoint, comparing the two
  // greedy candidates, and reversing back if needed.
  if (raw(to) < raw(from)) {
    auto path = lex_min_shortest_path_symmetric(k, to, from);
    if (path.has_value()) std::reverse(path->begin(), path->end());
    return path;
  }
  const auto flat = compile_one_skeleton(k);
  auto forward = lex_min_shortest_path(*flat, from, to);
  auto backward = lex_min_shortest_path(*flat, to, from);
  if (!forward.has_value() || !backward.has_value()) return std::nullopt;
  std::reverse(backward->begin(), backward->end());
  return std::min(*forward, *backward,
                  [](const std::vector<VertexId>& a, const std::vector<VertexId>& b) {
                    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                                        b.end(), by_id);
                  });
}

std::optional<std::size_t> path_distance(const SimplicialComplex& k, VertexId from,
                                         VertexId to) {
  const auto flat = compile_one_skeleton(k);
  const CompiledComplex::Local source = flat->local(from), target = flat->local(to);
  if (source == CompiledComplex::kAbsent || target == CompiledComplex::kAbsent) {
    return std::nullopt;
  }
  std::vector<std::int32_t> dist(flat->num_vertices(), -1);
  std::vector<CompiledComplex::Local> parent(flat->num_vertices());
  breadth_first(*flat, source, dist, parent);
  const std::int32_t d = dist[static_cast<std::size_t>(target)];
  if (d < 0) return std::nullopt;
  return static_cast<std::size_t>(d);
}

}  // namespace trichroma
