// Differential oracle for the incremental split. make_link_connected
// splits on a SplitWorkspace, rewiring only the rows that hold the split
// vertex, and scans each input facet for LAPs once. The implementation it
// replaced rebuilt the whole task after every split and rescanned Δ(σ) for
// its smallest LAP. That implementation lives on here, and the two must
// agree exactly: the same split history (facet, vertex, component count,
// copies), the same T′ (name, output complex, Δ rows) and the same
// vertex-pool size, hence the same vertex ids. The copying split_lap must
// agree with one rebuild on every LAP of T*'s first facet in the same way.
// The sweep covers the zoo catalog and seeded random draws over every
// combination of 1–4 input facets, 2–4 output values per color and
// restricted faces on/off.

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/lap.h"
#include "core/link_connected.h"
#include "core/splitting.h"
#include "tasks/canonical.h"
#include "tasks/zoo.h"

namespace trichroma {
namespace {

// The rebuild-per-split deformation: builds T_y from scratch, copying I,
// re-adding every output simplex and rebuilding every Δ row.
SplitResult rebuild_split_lap(const Task& task, const LapRecord& lap) {
  VertexPool& pool = *task.pool;
  const VertexId y = lap.vertex;
  const Simplex& sigma = lap.facet;
  const std::vector<std::vector<VertexId>> components = lap.link.groups();
  const int r = static_cast<int>(components.size());
  assert(r >= 2);

  // Component index (1-based) of each link vertex.
  std::unordered_map<VertexId, int, VertexIdHash> component_of;
  for (int i = 0; i < r; ++i) {
    for (VertexId z : components[static_cast<std::size_t>(i)]) {
      component_of.emplace(z, i + 1);
    }
  }

  SplitResult result;
  result.original = y;
  for (int i = 1; i <= r; ++i) result.copies.push_back(split_copy(pool, y, i));

  Task& ty = result.task;
  ty.pool = task.pool;
  ty.name = task.name + "/split(" + pool.name(y) + ")";
  ty.num_processes = task.num_processes;
  ty.input = task.input;

  // Pass 1: rewire every facet image except the solo case ρ = {y} on
  // vertices of σ, which needs the images of the containing simplices and is
  // resolved in pass 2.
  std::vector<Simplex> deferred_solo_inputs;
  std::unordered_map<Simplex, std::vector<Simplex>, SimplexHash> new_images;

  task.input.for_each([&](const Simplex& tau) {
    const bool tau_in_sigma = sigma.contains_all(tau);
    std::vector<Simplex>& images = new_images[tau];
    for (const Simplex& rho : task.delta.facet_images(tau)) {
      if (!rho.contains(y)) {
        images.push_back(rho);
        continue;
      }
      if (tau_in_sigma) {
        const Simplex rest = rho.without(y);
        if (rest.empty()) {
          deferred_solo_inputs.push_back(tau);
          continue;
        }
        // All of ρ \ {y} lies in one link component (ρ ∈ Δ(τ) ⊆ Δ(σ), so
        // ρ \ {y} is a simplex of lk_{Δ(σ)}(y)).
        auto it = component_of.find(rest[0]);
        if (it == component_of.end()) {
          throw std::logic_error("rebuild_split_lap: link vertex missing a component");
        }
        const int i = it->second;
        for (VertexId z : rest) {
          if (component_of.at(z) != i) {
            throw std::logic_error("rebuild_split_lap: facet straddles link components");
          }
        }
        images.push_back(rest.with(result.copies[static_cast<std::size_t>(i - 1)]));
      } else {
        // τ ⊄ σ: one rewired facet per copy.
        const Simplex rest = rho.without(y);
        for (VertexId yi : result.copies) {
          images.push_back(rest.with(yi));
        }
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
  for (const Simplex& x : deferred_solo_inputs) {
    std::set<VertexId> allowed;
    task.input.for_each([&](const Simplex& tau) {
      if (tau == x || !tau.contains_all(x)) return;
      if (!task.delta.image_complex(tau).contains_vertex(y)) return;
      for (const Simplex& im : new_images.at(tau)) {
        for (VertexId v : im) {
          if (std::find(result.copies.begin(), result.copies.end(), v) !=
              result.copies.end()) {
            allowed.insert(v);
          }
        }
      }
    });
    if (allowed.empty()) {
      // y appears in no larger image: only possible if the original task
      // already violated monotonicity at x.
      throw std::logic_error(
          "rebuild_split_lap: solo-decided LAP missing from every containing image");
    }
    for (VertexId yi : allowed) {
      new_images[x].push_back(Simplex::single(yi));
    }
  }

  for (auto& [tau, images] : new_images) {
    for (const Simplex& im : images) ty.output.add(im);
    ty.delta.set(tau, std::move(images));
  }
  return result;
}

// The rescan loop: after every split, recompile Δ(σ) and split its smallest
// LAP, until the facet is clean.
LinkConnectedResult rescan_make_link_connected(const Task& canonical_task) {
  if (!canonical_task.is_canonical()) {
    throw std::logic_error("make_link_connected requires a canonical task");
  }
  LinkConnectedResult result;
  result.task = canonical_task;
  const std::size_t guard =
      16 * (result.task.output.count(0) + 4) *
      (result.task.input.count(2) + result.task.input.count(1) + 4);
  const int top = result.task.input.dimension();
  for (const Simplex& sigma : result.task.input.simplices(top)) {
    while (true) {
      auto lap = first_lap(result.task, sigma);
      if (!lap.has_value()) break;
      if (result.history.size() > guard) {
        throw std::logic_error("make_link_connected: split loop exceeded bound");
      }
      SplitResult split = rebuild_split_lap(result.task, *lap);
      result.history.push_back(SplitEvent{lap->facet, lap->vertex, lap->link.count,
                                          split.copies});
      result.task = std::move(split.task);
    }
  }
  return result;
}

// Which kinds of Δ row the copying-form splits rewired, summed over a sweep.
struct RowKinds {
  std::size_t splits = 0;
  std::size_t solo = 0;     ///< splits whose y is a solo image {y} on a vertex of σ
  std::size_t outside = 0;  ///< splits whose y is held by a row τ ⊄ σ
};

// Splits every LAP of T*'s first facet once, through split_lap and through
// rebuild_split_lap, each on its own clone of T*.
void expect_same_single_splits(const Task& canonical, const std::string& label,
                               RowKinds& kinds) {
  const int top = canonical.input.dimension();
  if (top < 0) return;
  const Simplex sigma = canonical.input.simplices(top).front();
  for (const LapRecord& lap : find_laps(canonical, sigma)) {
    const std::string at = label + " split of " + canonical.pool->name(lap.vertex);
    const Task oracle_input = clone_task(canonical);
    const Task fresh_input = clone_task(canonical);
    const SplitResult oracle = rebuild_split_lap(oracle_input, lap);
    const SplitResult fresh = split_lap(fresh_input, lap);
    EXPECT_EQ(oracle.copies, fresh.copies) << at;
    EXPECT_EQ(oracle.task.name, fresh.task.name) << at;
    EXPECT_TRUE(oracle.task.output == fresh.task.output) << at;
    EXPECT_TRUE(oracle.task.delta == fresh.task.delta) << at;
    EXPECT_EQ(oracle_input.pool->size(), fresh_input.pool->size()) << at;

    ++kinds.splits;
    bool solo = false, outside = false;
    canonical.input.for_each([&](const Simplex& tau) {
      for (const Simplex& rho : canonical.delta.facet_images(tau)) {
        if (!rho.contains(lap.vertex)) continue;
        if (!sigma.contains_all(tau)) outside = true;
        if (rho.size() == 1 && sigma.contains_all(tau)) solo = true;
      }
    });
    kinds.solo += solo ? 1 : 0;
    kinds.outside += outside ? 1 : 0;
  }
}

// Runs both implementations on separate clones of canonicalize(task), so
// each interns its copies into its own pool from the same starting ids,
// then compares the copying form's single splits of T*. Returns the number
// of make_link_connected splits compared.
std::size_t expect_same_transform(const Task& task, const std::string& label,
                                  RowKinds& kinds) {
  const Task canonical = canonicalize(task);
  if (task.num_processes == 2) {
    // Section 4's splitting needs three processes: make_link_connected
    // refuses T*, so there is no split to compare.
    EXPECT_THROW(make_link_connected(canonical), std::logic_error) << label;
    return 0;
  }
  const Task oracle_input = clone_task(canonical);
  const Task fresh_input = clone_task(canonical);
  const LinkConnectedResult oracle = rescan_make_link_connected(oracle_input);
  const LinkConnectedResult fresh = make_link_connected(fresh_input);

  EXPECT_EQ(oracle.history.size(), fresh.history.size()) << label;
  const std::size_t splits = std::min(oracle.history.size(), fresh.history.size());
  for (std::size_t i = 0; i < splits; ++i) {
    const SplitEvent& a = oracle.history[i];
    const SplitEvent& b = fresh.history[i];
    EXPECT_EQ(a.facet, b.facet) << label << " split " << i;
    EXPECT_EQ(a.vertex, b.vertex) << label << " split " << i;
    EXPECT_EQ(a.component_count, b.component_count) << label << " split " << i;
    EXPECT_EQ(a.copies, b.copies) << label << " split " << i;
  }
  EXPECT_EQ(oracle.task.name, fresh.task.name) << label;
  EXPECT_EQ(oracle.task.num_processes, fresh.task.num_processes) << label;
  EXPECT_TRUE(oracle.task.input == fresh.task.input) << label;
  EXPECT_TRUE(oracle.task.output == fresh.task.output) << label;
  EXPECT_TRUE(oracle.task.delta == fresh.task.delta) << label;
  EXPECT_EQ(oracle_input.pool->size(), fresh_input.pool->size()) << label;
  EXPECT_EQ(oracle_input.pool->values().size(), fresh_input.pool->values().size())
      << label;
  expect_same_single_splits(canonical, label, kinds);
  return splits;
}

TEST(SplitOracle, CatalogMatchesRebuildPerSplit) {
  std::size_t split_tasks = 0;
  RowKinds kinds;
  for (const zoo::CatalogEntry& entry : zoo::catalog()) {
    if (expect_same_transform(entry.build(), entry.name, kinds) > 0) ++split_tasks;
  }
  // The sweep must exercise splitting, not just pass through clean tasks,
  // and the copying form must rewire solo rows and rows τ ⊄ σ.
  EXPECT_GE(split_tasks, 5u);
  EXPECT_GT(kinds.solo, 0u);
  EXPECT_GT(kinds.outside, 0u);
}

// (input facets, output values per color, restricted faces)
using DrawShape = std::tuple<int, int, bool>;

class SplitOracleRandom : public ::testing::TestWithParam<DrawShape> {};

// Draws per shape until 100 splits have been compared (at most 8 draws):
// the rebuild-per-split oracle is superlinear in the split count, and a
// single draw with 4 facets and 4 values per color already needs 90–200
// splits.
TEST_P(SplitOracleRandom, SeededDrawsMatchRebuildPerSplit) {
  const auto [facets, values, restricted] = GetParam();
  std::size_t splits = 0;
  RowKinds kinds;
  for (std::uint64_t seed = 0; seed < 8 && splits < 100; ++seed) {
    zoo::RandomTaskParams params;
    params.num_input_facets = facets;
    params.output_values_per_color = values;
    params.restricted_faces = restricted;
    params.seed = 7919 * seed + 100 * static_cast<std::uint64_t>(facets) +
                  10 * static_cast<std::uint64_t>(values) + (restricted ? 1 : 0);
    const Task task = zoo::random_task(params);
    splits += expect_same_transform(
        task, task.name + " seed " + std::to_string(params.seed), kinds);
  }
  EXPECT_GT(splits, 0u);
  EXPECT_GT(kinds.splits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SplitOracleRandom,
    ::testing::Combine(::testing::Range(1, 5), ::testing::Range(2, 5),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<DrawShape>& info) {
      return "facets" + std::to_string(std::get<0>(info.param)) + "_values" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_restricted" : "_universal");
    });

}  // namespace
}  // namespace trichroma
