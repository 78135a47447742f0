// Property-based sweeps (parameterized gtest): invariants that must hold
// across whole families of inputs rather than hand-picked cases.

#include <gtest/gtest.h>

#include "core/characterization.h"
#include "core/link_connected.h"
#include "core/obstructions.h"
#include "solver/map_search.h"
#include "tasks/canonical.h"
#include "tasks/zoo.h"
#include "topology/chromatic.h"
#include "topology/compiled.h"
#include "topology/graph.h"
#include "topology/homology.h"
#include "topology/subdivision.h"

namespace trichroma {
namespace {

// ---------------------------------------------------------------------------
// Subdivision properties over the radius.
// ---------------------------------------------------------------------------

class SubdivisionProperty : public ::testing::TestWithParam<int> {};

TEST_P(SubdivisionProperty, DiskInvariants) {
  const int rounds = GetParam();
  VertexPool pool;
  SimplicialComplex base;
  base.add(Simplex{pool.vertex(0, 0), pool.vertex(1, 1), pool.vertex(2, 2)});
  const SubdividedComplex sub = chromatic_subdivision(pool, base, rounds);
  // Facet count 13^r; still a disk (χ = 1); pure, chromatic, colors 0..2.
  std::size_t expected = 1;
  for (int i = 0; i < rounds; ++i) expected *= 13;
  EXPECT_EQ(sub.complex.count(2), expected);
  EXPECT_EQ(sub.complex.euler_characteristic(), 1);
  EXPECT_TRUE(sub.complex.is_pure());
  EXPECT_TRUE(is_chromatic_complex(pool, sub.complex));
  EXPECT_TRUE(is_properly_colored(pool, sub.complex, 3));
  EXPECT_TRUE(is_connected(sub.complex));
  // Interior links are connected (subdivisions of disks are link-connected
  // at interior vertices); corner links may be smaller but never empty.
  for (VertexId v : sub.complex.vertex_ids()) {
    EXPECT_FALSE(sub.complex.link(v).empty());
    EXPECT_TRUE(is_connected(sub.complex.link(v)));
  }
  // Carriers are faces of the base facet and contain the vertex's color.
  const Simplex sigma = base.facets().front();
  for (VertexId v : sub.complex.vertex_ids()) {
    EXPECT_TRUE(sigma.contains_all(sub.carrier.at(v)));
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, SubdivisionProperty, ::testing::Values(0, 1, 2, 3));

// ---------------------------------------------------------------------------
// Homology consistency: χ = b0 - b1 + b2 on assorted complexes.
// ---------------------------------------------------------------------------

class EulerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EulerProperty, EulerPoincare) {
  zoo::RandomTaskParams params;
  params.seed = GetParam();
  params.num_input_facets = 1 + static_cast<int>(GetParam() % 4);
  const Task t = zoo::random_task(params);
  const BettiNumbers b = betti_numbers(t.output);
  EXPECT_EQ(t.output.euler_characteristic(), b.b0 - b.b1 + b.b2);
  EXPECT_EQ(static_cast<std::size_t>(b.b0), component_count(t.output));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EulerProperty,
                         ::testing::Range<std::uint64_t>(0, 12));

// ---------------------------------------------------------------------------
// Random-task pipeline invariants.
// ---------------------------------------------------------------------------

class RandomTaskProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTaskProperty, PipelineInvariants) {
  zoo::RandomTaskParams params;
  params.seed = GetParam();
  params.num_input_facets = 1 + static_cast<int>(GetParam() % 4);
  const Task t = zoo::random_task(params);
  ASSERT_TRUE(t.validate().empty());

  // Canonicalization: valid, canonical, same input complex, and the output
  // facet count is the sum over input facets of their image counts.
  const Task star = canonicalize(t);
  EXPECT_TRUE(star.validate().empty());
  EXPECT_TRUE(star.is_canonical());
  EXPECT_TRUE(star.input == t.input);
  std::size_t image_facets = 0;
  for (const Simplex& sigma : t.input.simplices(2)) {
    image_facets += t.delta.facet_images(sigma).size();
  }
  EXPECT_EQ(star.output.count(2), image_facets);

  // Splitting: terminates, link-connected, canonical, LAP count reaches 0,
  // and all intermediate structure stays valid (modulo the documented
  // solo-level monotonicity relaxation).
  const LinkConnectedResult lc = make_link_connected(star);
  EXPECT_TRUE(lc.task.is_link_connected());
  EXPECT_TRUE(lc.task.is_canonical());
  EXPECT_TRUE(find_all_laps(lc.task).empty());
  EXPECT_TRUE(lc.task.validate(/*relax_vertex_monotonicity=*/true).empty());

  // Components never decrease under splitting.
  EXPECT_GE(component_count(lc.task.output), component_count(star.output));
}

TEST_P(RandomTaskProperty, SplitStepInvariants) {
  zoo::RandomTaskParams params;
  params.seed = GetParam();
  params.num_input_facets = 1 + static_cast<int>(GetParam() % 3);
  Task t = canonicalize(zoo::random_task(params));
  // Per-facet LAP counts are non-increasing for the facet being split.
  int guard = 0;
  while (guard++ < 200) {
    const auto laps = find_all_laps(t);
    if (laps.empty()) break;
    const LapRecord& lap = laps.front();
    const std::size_t before = find_laps(t, lap.facet).size();
    const SplitResult split = split_lap(t, lap);
    const std::size_t after = find_laps(split.task, lap.facet).size();
    EXPECT_LT(after, before);
    // Copies carry the LAP's color; the original vertex is gone.
    for (VertexId copy : split.copies) {
      EXPECT_EQ(t.pool->color(copy), t.pool->color(lap.vertex));
    }
    EXPECT_FALSE(split.task.output.contains_vertex(lap.vertex));
    t = split.task;
  }
  EXPECT_TRUE(find_all_laps(t).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTaskProperty,
                         ::testing::Range<std::uint64_t>(0, 16));

// ---------------------------------------------------------------------------
// Obstruction soundness on random tasks: the connectivity CSP may never
// reject a task for which a chromatic decision map exists.
// ---------------------------------------------------------------------------

class ObstructionSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ObstructionSoundness, CspNeverRejectsSolvable) {
  zoo::RandomTaskParams params;
  params.seed = GetParam() + 1000;
  params.num_input_facets = 1 + static_cast<int>(GetParam() % 4);
  const Task t = zoo::random_task(params);
  const ConnectivityCsp csp = connectivity_csp(t);
  if (!csp.feasible) {
    // Then no decision map may exist at any radius; check r <= 1.
    for (int r = 0; r <= 1; ++r) {
      const SubdividedComplex domain = chromatic_subdivision(*t.pool, t.input, r);
      MapSearchOptions options;
      EXPECT_FALSE(find_decision_map(*t.pool, domain, t, options).found)
          << t.name << " radius " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObstructionSoundness,
                         ::testing::Range<std::uint64_t>(0, 10));


// ---------------------------------------------------------------------------
// Compiled-substrate equivalence: a compiled complex must answer every
// structural query exactly as the hash-set SimplicialComplex with the same
// simplices — links, membership, per-dimension counts — for every complex
// the solver actually touches (zoo inputs/outputs, Δ images, random tasks,
// and their chromatic subdivisions at radii 0..2).
// ---------------------------------------------------------------------------

/// `c` and `facets` both hold the closure `k`: the compiled form and the
/// facet list link_labels reads.
void expect_compiled_equivalent(const CompiledComplex& c,
                                const std::vector<Simplex>& facets,
                                const SimplicialComplex& k,
                                const std::string& what) {
  // Global shape.
  ASSERT_EQ(c.num_vertices(), k.count(0)) << what;
  EXPECT_EQ(c.dimension(), k.dimension()) << what;
  for (int d = 0; d <= k.dimension(); ++d) {
    EXPECT_EQ(c.count(d), k.count(d)) << what << " dim " << d;
  }

  // Locals enumerate the vertices in the deterministic sorted order.
  const std::vector<VertexId> ids = k.vertex_ids();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto v = static_cast<CompiledComplex::Local>(i);
    ASSERT_EQ(c.vertex(v), ids[i]) << what;

    // Link structure: emptiness (count 0), connectivity (count 1), the
    // component count, and the exact component partition link_labels
    // derives from the facet list, in connected_components' format.
    const SimplicialComplex link = k.link(ids[i]);
    EXPECT_EQ(c.link_component_count(v) == 0, link.empty()) << what;
    const auto components = connected_components(link);
    EXPECT_EQ(c.link_component_count(v), components.size()) << what;
    EXPECT_EQ(link_labels(facets, ids[i]).groups(), components) << what;
    EXPECT_EQ(c.link_component_count(v) == 1,
              !link.empty() && components.size() == 1)
        << what;
  }

  // Exact membership on every stored simplex.
  k.for_each([&](const Simplex& s) {
    EXPECT_TRUE(c.contains(s)) << what << " size " << s.size();
  });

#ifndef NDEBUG
  c.debug_verify_against(k);
#endif
}

/// The closure of `k`'s facets, as the solver builds Δ-images.
void expect_compiled_equivalent(const SimplicialComplex& k,
                                const std::string& what) {
  const std::vector<Simplex> facets = k.facets();
  expect_compiled_equivalent(*CompiledComplex::of_facets(facets), facets, k, what);
}

/// Δ(σ) of every input facet σ of `t`, compiled from its facet list as the
/// LAP and link-connectivity scans compile it.
void expect_images_equivalent(const Task& t, const std::string& what) {
  for (const Simplex& sigma : t.input.simplices(t.input.dimension())) {
    const std::vector<Simplex>& facets = t.delta.facet_images(sigma);
    expect_compiled_equivalent(*CompiledComplex::of_facets(facets), facets,
                               t.delta.image_complex(sigma), what);
  }
}

class CompiledCatalogEquivalence
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CompiledCatalogEquivalence, MatchesHashSetForm) {
  const zoo::CatalogEntry& entry = zoo::catalog()[GetParam()];
  const std::string name(entry.name);
  const Task t = entry.build();
  expect_compiled_equivalent(t.input, name + ".input");
  expect_compiled_equivalent(t.output, name + ".output");
  // The Δ images the scans compile: the task's own, T*'s (canonicalize)
  // and T′'s (make_link_connected). Section 4's splitting needs three
  // processes, so a two-process task has T* and no T′.
  expect_images_equivalent(t, name + ".image");
  if (t.num_processes == 2) {
    expect_images_equivalent(canonicalize(t), name + ".T*.image");
    return;
  }
  const CharacterizationResult c = characterize(t);
  expect_images_equivalent(c.canonical, name + ".T*.image");
  expect_images_equivalent(c.link_connected, name + ".T'.image");
}

INSTANTIATE_TEST_SUITE_P(Zoo, CompiledCatalogEquivalence,
                         ::testing::Range<std::size_t>(0, 21));

TEST(CompiledCatalogEquivalence, CatalogHasTheExpectedSize) {
  // Keep the Range above in sync with the catalog.
  EXPECT_EQ(zoo::catalog().size(), 21u);
}

class CompiledSubdivisionEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompiledSubdivisionEquivalence, MatchesAcrossRadii) {
  zoo::RandomTaskParams params;
  params.seed = GetParam() + 2000;
  params.num_input_facets = 1 + static_cast<int>(GetParam() % 3);
  const Task t = zoo::random_task(params);
  for (int r = 0; r <= 2; ++r) {
    const SubdividedComplex sub = chromatic_subdivision(*t.pool, t.input, r);
    const std::string what = t.name + ".Ch^" + std::to_string(r);
    // The snapshot cached by the subdivision itself must match too (it is
    // built by streaming facets through the Builder, not by of_facets).
    ASSERT_NE(sub.compiled, nullptr);
    expect_compiled_equivalent(*sub.compiled, sub.complex.facets(), sub.complex,
                               what + ".cached");
    expect_compiled_equivalent(sub.complex, what);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledSubdivisionEquivalence,
                         ::testing::Range<std::uint64_t>(0, 6));

// ---------------------------------------------------------------------------
// Splitting-order independence: Theorem 4.3 fixes no elimination order; the
// resulting component structure and obstruction verdicts must not depend on
// it.
// ---------------------------------------------------------------------------

class SplitOrderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SplitOrderProperty, OrderIndependentOutcome) {
  zoo::RandomTaskParams params;
  params.seed = GetParam() + 500;
  params.num_input_facets = 1 + static_cast<int>(GetParam() % 3);
  const Task base = canonicalize(zoo::random_task(params));

  auto run = [&](bool reverse) {
    Task t = base;
    int guard = 0;
    while (guard++ < 300) {
      auto laps = find_all_laps(t);
      if (laps.empty()) break;
      t = split_lap(t, reverse ? laps.back() : laps.front()).task;
    }
    return t;
  };
  const Task forward = run(false);
  const Task backward = run(true);
  EXPECT_TRUE(forward.is_link_connected());
  EXPECT_TRUE(backward.is_link_connected());
  EXPECT_EQ(component_count(forward.output), component_count(backward.output));
  EXPECT_EQ(forward.output.count(2), backward.output.count(2));
  EXPECT_EQ(connectivity_csp(forward).feasible, connectivity_csp(backward).feasible);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitOrderProperty,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace trichroma
