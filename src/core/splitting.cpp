#include "core/splitting.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <stdexcept>
#include <unordered_map>

namespace trichroma {

VertexId split_copy(VertexPool& pool, VertexId y, int i) {
  ValuePool& vals = pool.values();
  const ValueId value =
      vals.of_tuple({vals.of_string("split"), vals.of_int(static_cast<std::int64_t>(raw(y))),
                     vals.of_int(i)});
  return pool.vertex(pool.color(y), value);
}

bool is_split_vertex(const VertexPool& pool, VertexId v) {
  const ValuePool& vals = pool.values();
  const ValueId val = pool.value(v);
  if (vals.kind(val) != ValuePool::Kind::Tuple) return false;
  const auto elems = vals.elements(val);
  return elems.size() == 3 && vals.kind(elems[0]) == ValuePool::Kind::Str &&
         vals.as_string(elems[0]) == "split";
}

VertexId split_parent(VertexPool& pool, VertexId v) {
  if (!is_split_vertex(pool, v)) {
    throw std::logic_error("vertex is not a split copy");
  }
  const auto elems = pool.values().elements(pool.value(v));
  return VertexId{static_cast<std::uint32_t>(pool.values().as_int(elems[1]))};
}

VertexId split_root(VertexPool& pool, VertexId v) {
  while (is_split_vertex(pool, v)) v = split_parent(pool, v);
  return v;
}

std::vector<VertexId> split_lap_in_place(Task& task, const LapRecord& lap) {
  VertexPool& pool = *task.pool;
  const VertexId y = lap.vertex;
  const Simplex& sigma = lap.facet;
  const int r = static_cast<int>(lap.link_components.size());
  assert(r >= 2);

  // Component index (1-based) of each link vertex.
  std::unordered_map<VertexId, int, VertexIdHash> component_of;
  for (int i = 0; i < r; ++i) {
    for (VertexId z : lap.link_components[static_cast<std::size_t>(i)]) {
      component_of.emplace(z, i + 1);
    }
  }

  std::vector<VertexId> copies;
  for (int i = 1; i <= r; ++i) copies.push_back(split_copy(pool, y, i));
  const auto is_copy = [&](VertexId v) {
    return std::find(copies.begin(), copies.end(), v) != copies.end();
  };

  // Pass 1: rewire the rows whose images contain y — the only rows the split
  // changes — except the solo case ρ = {y} on vertices of σ, which needs the
  // images of the containing simplices and is resolved in pass 2.
  struct Row {
    Simplex tau;
    std::vector<Simplex> images;
    bool solo = false;
  };
  std::vector<Row> rows;
  task.input.for_each([&](const Simplex& tau) {
    const std::vector<Simplex>& old = task.delta.facet_images(tau);
    if (std::none_of(old.begin(), old.end(),
                     [&](const Simplex& rho) { return rho.contains(y); })) {
      return;
    }
    Row& row = rows.emplace_back(Row{tau, {}, false});
    const bool tau_in_sigma = sigma.contains_all(tau);
    for (const Simplex& rho : old) {
      if (!rho.contains(y)) {
        row.images.push_back(rho);
        continue;
      }
      const Simplex rest = rho.without(y);
      if (!tau_in_sigma) {
        // τ ⊄ σ: one rewired facet per copy.
        for (VertexId yi : copies) row.images.push_back(rest.with(yi));
      } else if (rest.empty()) {
        row.solo = true;
      } else {
        // All of ρ \ {y} lies in one link component (ρ ∈ Δ(τ) ⊆ Δ(σ), so
        // ρ \ {y} is a simplex of lk_{Δ(σ)}(y)).
        auto it = component_of.find(rest[0]);
        if (it == component_of.end()) {
          throw std::logic_error("split_lap: link vertex missing a component");
        }
        const int i = it->second;
        for (VertexId z : rest) {
          if (component_of.at(z) != i) {
            throw std::logic_error("split_lap: facet straddles link components");
          }
        }
        row.images.push_back(rest.with(copies[static_cast<std::size_t>(i - 1)]));
      }
    }
  });

  // Pass 2: solo decisions of y on input vertices of σ. The paper keeps
  // "one copy per connected component" available to the solo decider (cf.
  // the pinwheel discussion in §6.2); we include every copy that appears in
  // the image of at least one containing input simplex. This preserves
  // solvability in both directions — a real protocol's solo copy is forced
  // by its neighbors into every containing edge's component, hence lies in
  // this union, and collapsing copies always maps back — at the price of
  // vertex-level monotonicity, which split tasks may violate (as does the
  // paper's own construction). Downstream engines re-derive the effective
  // per-edge solo constraints themselves.
  for (Row& row : rows) {
    if (!row.solo) continue;
    std::set<VertexId> allowed;
    for (const Row& other : rows) {
      if (other.tau == row.tau || !other.tau.contains_all(row.tau)) continue;
      for (const Simplex& im : other.images) {
        for (VertexId v : im) {
          if (is_copy(v)) allowed.insert(v);
        }
      }
    }
    if (allowed.empty()) {
      // y appears in no larger image: only possible if the original task
      // already violated monotonicity at this vertex.
      throw std::logic_error(
          "split_lap: solo-decided LAP missing from every containing image");
    }
    for (VertexId yi : allowed) row.images.push_back(Simplex::single(yi));
  }

  for (Row& row : rows) task.delta.set(row.tau, std::move(row.images));
  task.name += "/split(" + pool.name(y) + ")";
  return copies;
}

SplitResult split_lap(const Task& task, const LapRecord& lap) {
  SplitResult result{task, lap.vertex, {}};
  result.copies = split_lap_in_place(result.task, lap);
  result.task.output = result.task.delta.reachable_output(result.task.input);
  return result;
}

}  // namespace trichroma
