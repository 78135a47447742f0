#include "core/splitting.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

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

SplitWorkspace::SplitWorkspace(Task& task) : task_(task) {
  std::uint32_t lo = UINT32_MAX, hi = 0;
  task.input.for_each([&](const Simplex& tau) {
    row_of_.emplace(tau, static_cast<std::uint32_t>(rows_.size()));
    const Row& row = rows_.emplace_back(Row{tau, task.delta.facet_images(tau)});
    for (const Simplex& rho : row.images) {
      for (VertexId v : rho) {
        lo = std::min(lo, raw(v));
        hi = std::max(hi, raw(v));
      }
    }
  });
  if (lo > hi) return;  // Δ holds no vertex
  base_ = lo;
  holders_.resize(hi - lo + 1);
  for (std::uint32_t id = 0; id < rows_.size(); ++id) {
    for (const Simplex& rho : rows_[id].images) {
      for (VertexId v : rho) add_holder(v, id);
    }
  }
}

std::vector<std::uint32_t>& SplitWorkspace::holders(VertexId v) {
  assert(raw(v) >= base_ && raw(v) - base_ < holders_.size());
  return holders_[raw(v) - base_];
}

void SplitWorkspace::add_holder(VertexId v, std::uint32_t id) {
  std::vector<std::uint32_t>& list = holders(v);
  if (list.empty() || list.back() != id) list.push_back(id);
}

const std::vector<Simplex>& SplitWorkspace::row(const Simplex& tau) const {
  static const std::vector<Simplex> kNone;
  const auto it = row_of_.find(tau);
  return it == row_of_.end() ? kNone : rows_[it->second].images;
}

std::vector<VertexId> SplitWorkspace::split(const LapRecord& lap) {
  VertexPool& pool = *task_.pool;
  const VertexId y = lap.vertex;
  const Simplex& sigma = lap.facet;
  const std::size_t r = lap.link.count;
  assert(r >= 2);

  std::vector<VertexId> copies;
  copies.reserve(r);
  for (std::size_t i = 1; i <= r; ++i) {
    copies.push_back(split_copy(pool, y, static_cast<int>(i)));
  }
  std::uint32_t top = 0;
  for (VertexId yi : copies) top = std::max(top, raw(yi) - base_);
  if (top >= holders_.size()) holders_.resize(top + 1);

  // Pass 1: rewire the rows that hold y, the only rows the split changes,
  // except the solo case ρ = {y} on vertices of σ, which needs the rewired
  // images of the containing simplices and is resolved in pass 2.
  const std::vector<std::uint32_t> rows_with_y = std::exchange(holders(y), {});
  std::vector<std::uint32_t> solo_rows;
  for (std::uint32_t id : rows_with_y) {
    Row& row = rows_[id];
    row.touched = true;
    const bool tau_in_sigma = sigma.contains_all(row.tau);
    std::vector<Simplex>& images = row.images;
    const std::size_t held = images.size();  // facets appended below hold no y
    for (std::size_t k = 0; k < held; ++k) {
      if (!images[k].contains(y)) continue;
      const Simplex rest = images[k].without(y);
      if (!tau_in_sigma) {
        // τ ⊄ σ: one rewired facet per copy.
        images[k] = rest.with(copies[0]);
        for (std::size_t i = 1; i < r; ++i) images.push_back(rest.with(copies[i]));
        for (VertexId yi : copies) add_holder(yi, id);
      } else if (rest.empty()) {
        // The row of a vertex of σ: {y} is its only facet through y.
        images.erase(images.begin() + static_cast<std::ptrdiff_t>(k));
        solo_rows.push_back(id);
        break;
      } else {
        // All of ρ \ {y} lies in one link component (ρ ∈ Δ(τ) ⊆ Δ(σ), so
        // ρ \ {y} is a simplex of lk_{Δ(σ)}(y)).
        const std::int32_t i = lap.link.of(rest[0]);
        if (i < 0) {
          throw std::logic_error("split_lap: link vertex missing a component");
        }
        for (VertexId z : rest) {
          if (lap.link.of(z) != i) {
            throw std::logic_error("split_lap: facet straddles link components");
          }
        }
        const VertexId yi = copies[static_cast<std::size_t>(i)];
        images[k] = rest.with(yi);
        add_holder(yi, id);
      }
    }
  }

  // Pass 2: solo decisions of y on input vertices of σ. The paper keeps
  // "one copy per connected component" available to the solo decider (cf.
  // the pinwheel discussion in §6.2); we include every copy that appears in
  // the image of at least one containing input simplex. This preserves
  // solvability in both directions — a real protocol's solo copy is forced
  // by its neighbors into every containing edge's component, hence lies in
  // this union, and collapsing copies always maps back — at the price of
  // vertex-level monotonicity, which split tasks may violate (as does the
  // paper's own construction). Downstream engines re-derive the effective
  // per-edge solo constraints themselves. σ contains every such vertex, and
  // after pass 1 σ's row holds every copy (each link component contains some
  // ρ \ {y} with ρ ∈ Δ(σ)), so the union is all r copies.
  assert(std::all_of(copies.begin(), copies.end(), [&](VertexId yi) {
    const std::vector<std::uint32_t>& with_yi = holders(yi);
    return std::find(with_yi.begin(), with_yi.end(), row_of_.at(sigma)) != with_yi.end();
  }));
  for (std::uint32_t id : solo_rows) {
    for (VertexId yi : copies) {
      rows_[id].images.push_back(Simplex::single(yi));
      add_holder(yi, id);
    }
  }

  task_.name += "/split(" + pool.name(y) + ")";
  return copies;
}

void SplitWorkspace::finish() {
  for (Row& row : rows_) {
    if (row.touched) task_.delta.set(row.tau, std::move(row.images));
  }
  task_.output = task_.delta.reachable_output(task_.input);
}

void require_triangle_inputs(const Task& task, const char* caller) {
  if (task.input.dimension() != 2) {
    throw std::logic_error(std::string(caller) +
                           " requires input facets that are triangles (three processes)");
  }
}

SplitResult split_lap(const Task& task, const LapRecord& lap) {
  require_triangle_inputs(task, "split_lap");
  SplitResult result{task, lap.vertex, {}};
  SplitWorkspace rows(result.task);
  result.copies = rows.split(lap);
  rows.finish();
  return result;
}

}  // namespace trichroma
