// Tests for the decision-map CSP search (the executable ACT direction), its
// node accounting, and the cross-call Δ-image / edge-mask cache.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "solver/map_search.h"
#include "tasks/zoo.h"
#include "topology/subdivision.h"

namespace trichroma {
namespace {

struct ZooCase {
  std::string name;
  std::function<Task()> make;
};

// Every three-process zoo task (four-process ones exercise the n-ary path
// elsewhere; two-process tasks never reach the map search).
const std::vector<ZooCase>& zoo_cases() {
  static const std::vector<ZooCase> cases = {
      {"identity", [] { return zoo::identity_task(); }},
      {"renaming3", [] { return zoo::renaming(3); }},
      {"renaming5", [] { return zoo::renaming(5); }},
      {"consensus3", [] { return zoo::consensus(3); }},
      {"set_agreement_32", [] { return zoo::set_agreement_32(); }},
      {"majority_consensus", [] { return zoo::majority_consensus(); }},
      {"hourglass", [] { return zoo::hourglass(); }},
      {"twisted_hourglass", [] { return zoo::twisted_hourglass(); }},
      {"pinwheel", [] { return zoo::pinwheel(); }},
      {"fig3", [] { return zoo::fig3_running_example(); }},
      {"subdivision0", [] { return zoo::subdivision_task(0); }},
      {"subdivision1", [] { return zoo::subdivision_task(1); }},
      {"approx_agreement", [] { return zoo::approximate_agreement(2); }},
      {"fan6", [] { return zoo::fan_task(6); }},
      {"test_and_set", [] { return zoo::test_and_set(3); }},
      {"weak_symmetry_breaking", [] { return zoo::weak_symmetry_breaking(3); }},
      {"loop_hollow", [] { return zoo::loop_agreement_hollow_triangle(); }},
      {"loop_filled", [] { return zoo::loop_agreement_filled_triangle(); }},
  };
  return cases;
}

MapSearchResult search(const Task& task, int rounds, bool chromatic) {
  const SubdividedComplex domain =
      chromatic_subdivision(*task.pool, task.input, rounds);
  MapSearchOptions options;
  options.chromatic = chromatic;
  return find_decision_map(*task.pool, domain, task, options);
}

TEST(MapSearch, IdentityTaskSolvableAtRadiusZero) {
  const Task t = zoo::identity_task();
  const auto r = search(t, 0, true);
  EXPECT_TRUE(r.found);
  const SubdividedComplex domain = chromatic_subdivision(*t.pool, t.input, 0);
  EXPECT_TRUE(validate_decision_map(*t.pool, domain, t, r.map, true));
}

TEST(MapSearch, RenamingSolvableAtRadiusZero) {
  // Ids are known, so index-renaming needs no communication.
  EXPECT_TRUE(search(zoo::renaming(3), 0, true).found);
  EXPECT_TRUE(search(zoo::renaming(5), 0, true).found);
}

TEST(MapSearch, SubdivisionTaskNeedsExactlyItsRadius) {
  for (int r = 0; r <= 2; ++r) {
    const Task t = zoo::subdivision_task(r);
    for (int attempt = 0; attempt < r; ++attempt) {
      const auto res = search(t, attempt, true);
      EXPECT_FALSE(res.found) << "r=" << r << " attempt=" << attempt;
      EXPECT_TRUE(res.exhausted);
    }
    const auto res = search(t, r, true);
    EXPECT_TRUE(res.found) << "r=" << r;
    const SubdividedComplex domain = chromatic_subdivision(*t.pool, t.input, r);
    EXPECT_TRUE(validate_decision_map(*t.pool, domain, t, res.map, true));
  }
}

TEST(MapSearch, ConsensusHasNoMapAtSmallRadii) {
  const Task t = zoo::consensus(3);
  for (int r = 0; r <= 1; ++r) {
    const auto res = search(t, r, true);
    EXPECT_FALSE(res.found);
    EXPECT_TRUE(res.exhausted);
  }
}

TEST(MapSearch, SetAgreementHasNoMapAtSmallRadii) {
  const Task t = zoo::set_agreement_32();
  for (int r = 0; r <= 1; ++r) {
    const auto res = search(t, r, true);
    EXPECT_FALSE(res.found) << "radius " << r;
    EXPECT_TRUE(res.exhausted);
  }
}

TEST(MapSearch, HourglassChromaticFailsButColorlessSucceeds) {
  const Task t = zoo::hourglass();
  EXPECT_FALSE(search(t, 1, true).found);
  EXPECT_FALSE(search(t, 2, true).found);
  EXPECT_FALSE(search(t, 1, false).found);
  const auto colorless = search(t, 2, false);
  EXPECT_TRUE(colorless.found);
  const SubdividedComplex domain = chromatic_subdivision(*t.pool, t.input, 2);
  EXPECT_TRUE(validate_decision_map(*t.pool, domain, t, colorless.map, false));
  // And it is genuinely not color-preserving somewhere.
  EXPECT_FALSE(validate_decision_map(*t.pool, domain, t, colorless.map, true));
}

TEST(MapSearch, ApproximateAgreementSolvable) {
  const Task t = zoo::approximate_agreement(2);
  bool found = false;
  int radius = -1;
  for (int r = 0; r <= 2 && !found; ++r) {
    found = search(t, r, true).found;
    radius = r;
  }
  EXPECT_TRUE(found);
  EXPECT_GE(radius, 1);  // radius 0 cannot mix inputs
}

TEST(MapSearch, WitnessIsCarriedByDelta) {
  const Task t = zoo::subdivision_task(1);
  const SubdividedComplex domain = chromatic_subdivision(*t.pool, t.input, 1);
  MapSearchOptions options;
  const auto res = find_decision_map(*t.pool, domain, t, options);
  ASSERT_TRUE(res.found);
  // Spot-check the carrier condition on every simplex.
  domain.complex.for_each([&](const Simplex& xi) {
    EXPECT_TRUE(t.delta.allows(domain.carrier_of(xi), res.map.apply(xi)));
  });
}

TEST(MapSearch, NodeCapReportsNonExhaustive) {
  const Task t = zoo::set_agreement_32();
  const SubdividedComplex domain = chromatic_subdivision(*t.pool, t.input, 1);
  MapSearchOptions options;
  options.node_cap = 3;
  const auto res = find_decision_map(*t.pool, domain, t, options);
  EXPECT_FALSE(res.found);
  EXPECT_FALSE(res.exhausted);
}

TEST(MapSearch, DomainWiderThan64ReportsOverflowNotUnsat) {
  // 65 candidate names per corner vertex exceed the 64-bit word-parallel
  // domain representation. Before the explicit outcome this silently set
  // trivially_unsat, which reads as a (bogus) impossibility proof; it must
  // report an inconclusive overflow instead.
  const Task t = zoo::renaming(65);
  const auto res = search(t, 0, true);
  EXPECT_FALSE(res.found);
  EXPECT_FALSE(res.exhausted);
  EXPECT_TRUE(res.domain_overflow);
  EXPECT_EQ(res.nodes_explored, 0u);
  // Exactly 64 still fits and must genuinely search (renaming with ids
  // known is solvable at radius 0).
  const auto res64 = search(zoo::renaming(64), 0, true);
  EXPECT_TRUE(res64.found);
  EXPECT_FALSE(res64.domain_overflow);
}

TEST(MapSearch, SplitPathNodeCountsArePinned) {
  // CSPs with 10 or more variables take the prefix-split path: a fixed
  // prefix expansion, then the canonical walk under one global node
  // counter reconciled at 256-node flush boundaries. These literal counts
  // pin that accounting (and with it every reported nodes_explored).
  {
    // A found witness: Ch^2 of the subdivision task, 99 variables.
    const Task t = zoo::subdivision_task(2);
    const SubdividedComplex domain = chromatic_subdivision(*t.pool, t.input, 2);
    const MapSearchResult res =
        find_decision_map(*t.pool, domain, t, MapSearchOptions{});
    ASSERT_TRUE(res.found);
    EXPECT_EQ(res.nodes_explored, 118u);
    EXPECT_TRUE(validate_decision_map(*t.pool, domain, t, res.map, true));
  }
  {
    // An exhausted refutation: set agreement on Ch^1, 12 variables.
    const Task t = zoo::set_agreement_32();
    const SubdividedComplex domain = chromatic_subdivision(*t.pool, t.input, 1);
    const MapSearchResult res =
        find_decision_map(*t.pool, domain, t, MapSearchOptions{});
    EXPECT_FALSE(res.found);
    EXPECT_TRUE(res.exhausted);
    EXPECT_EQ(res.nodes_explored, 402u);
  }
  {
    // A capped search: the cap is not a multiple of 256, so the walk stops
    // at the first global flush boundary past it (391 * 256).
    const Task t = zoo::set_agreement_32();
    const SubdividedComplex domain = chromatic_subdivision(*t.pool, t.input, 2);
    MapSearchOptions options;
    options.node_cap = 100'000;
    const MapSearchResult res = find_decision_map(*t.pool, domain, t, options);
    EXPECT_FALSE(res.found);
    EXPECT_FALSE(res.exhausted);
    EXPECT_EQ(res.nodes_explored, 100'096u);
  }
}

TEST(MapSearch, LoopAgreementInstances) {
  // Filled hexagon: contractible loop, solvable at small radius.
  const Task filled = zoo::loop_agreement_filled_triangle();
  bool found = false;
  for (int r = 0; r <= 2 && !found; ++r) found = search(filled, r, true).found;
  EXPECT_TRUE(found);
  // Hollow hexagon: the loop does not contract; no map at small radii.
  const Task hollow = zoo::loop_agreement_hollow_triangle();
  EXPECT_FALSE(search(hollow, 0, true).found);
  EXPECT_FALSE(search(hollow, 1, true).found);
}

// ---------------------------------------------------------------------------
// Δ-image cache
// ---------------------------------------------------------------------------

TEST(DeltaImageCacheTest, ReusedAcrossRadiiAndModes) {
  const Task task = zoo::subdivision_task(1);
  DeltaImageCache cache;
  MapSearchOptions options;
  options.image_cache = &cache;
  SubdivisionLadder ladder(*task.pool, task.input);

  find_decision_map(*task.pool, ladder.at(0), task, options);
  const std::size_t after_r0 = cache.size();
  EXPECT_GT(after_r0, 0u);
  find_decision_map(*task.pool, ladder.at(1), task, options);
  // The carriers at radius 1 are still simplices of the base complex, so
  // the image memo does not grow — every lookup hits.
  EXPECT_EQ(cache.size(), after_r0);
  EXPECT_GT(cache.hits(), 0u);
  // Color-agnostic probe on the same task shares Δ, hence the cache.
  options.chromatic = false;
  const std::size_t hits_before = cache.hits();
  find_decision_map(*task.pool, ladder.at(1), task, options);
  EXPECT_EQ(cache.size(), after_r0);
  EXPECT_GT(cache.hits(), hits_before);
}

TEST(DeltaImageCacheTest, CachedSearchMatchesUncached) {
  for (const ZooCase& c : zoo_cases()) {
    const Task task = c.make();
    DeltaImageCache cache;
    SubdivisionLadder ladder(*task.pool, task.input);
    for (int radius = 0; radius <= 1; ++radius) {
      MapSearchOptions cached;
      cached.image_cache = &cache;
      MapSearchOptions uncached;
      const MapSearchResult a =
          find_decision_map(*task.pool, ladder.at(radius), task, cached);
      const MapSearchResult b =
          find_decision_map(*task.pool, ladder.at(radius), task, uncached);
      EXPECT_EQ(a.found, b.found) << c.name << " r=" << radius;
      EXPECT_EQ(a.exhausted, b.exhausted) << c.name << " r=" << radius;
      EXPECT_EQ(a.nodes_explored, b.nodes_explored) << c.name << " r=" << radius;
    }
  }
}

TEST(DeltaImageCacheTest, EdgeMaskClassesCollapse) {
  // The distinct carriers are faces of the *base* complex, so as the
  // subdivision grows (here Ch^2: hundreds of edges) the edge population
  // collapses onto a bounded set of (image, color) mask classes.
  const Task task = zoo::subdivision_task(1);
  const SubdividedComplex domain =
      chromatic_subdivision(*task.pool, task.input, 2);
  std::size_t edges = 0;
  domain.complex.for_each([&](const Simplex& s) {
    if (s.dim() == 1) ++edges;
  });
  DeltaImageCache cache;
  MapSearchOptions options;
  options.image_cache = &cache;
  find_decision_map(*task.pool, domain, task, options);
  EXPECT_GT(edges, cache.edge_mask_misses());
  EXPECT_EQ(cache.edge_mask_hits() + cache.edge_mask_misses(), edges);
}

/// Compiled-image equality, row for row.
void expect_same_image(const CompiledComplex* a, const CompiledComplex* b) {
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(a->num_vertices(), b->num_vertices());
  for (std::size_t i = 0; i < a->num_vertices(); ++i) {
    const auto l = static_cast<CompiledComplex::Local>(i);
    EXPECT_EQ(a->vertex(l), b->vertex(l));
  }
  ASSERT_EQ(a->num_edges(), b->num_edges());
  for (std::size_t e = 0; e < a->num_edges(); ++e) {
    EXPECT_EQ(a->edge(e), b->edge(e));
  }
  ASSERT_EQ(a->num_triangles(), b->num_triangles());
  for (std::size_t t = 0; t < a->num_triangles(); ++t) {
    EXPECT_EQ(a->triangle(t), b->triangle(t));
  }
}

/// The shared access script both runs replay: touch every other carrier
/// twice (so hits exist), leave the rest untouched (so eager entries that
/// are never asked for must not count).
void run_access_script(DeltaImageCache& cache, const Task& task,
                       const std::vector<Simplex>& carriers,
                       std::vector<const CompiledComplex*>* images) {
  for (std::size_t i = 0; i < carriers.size(); i += 2) {
    const CompiledComplex* first = cache.image_of(task.delta, carriers[i]);
    const CompiledComplex* second = cache.image_of(task.delta, carriers[i]);
    EXPECT_EQ(first, second);
    images->push_back(first);
  }
}

void expect_populate_matches_lazy(const Task& task) {
  std::vector<Simplex> carriers;
  for (const Simplex& s : task.input.all_simplices()) {
    if (!s.empty()) carriers.push_back(s);
  }
  ASSERT_FALSE(carriers.empty());

  DeltaImageCache lazy;
  std::vector<const CompiledComplex*> lazy_images;
  run_access_script(lazy, task, carriers, &lazy_images);

  DeltaImageCache eager;
  eager.populate(task.delta, carriers);
  EXPECT_EQ(eager.size(), carriers.size());
  EXPECT_EQ(eager.warm_remaining(), carriers.size());
  // Eager compilation itself charges nothing.
  EXPECT_EQ(eager.hits(), 0u);
  EXPECT_EQ(eager.misses(), 0u);

  std::vector<const CompiledComplex*> eager_images;
  run_access_script(eager, task, carriers, &eager_images);
  // Identical accounting to the lazy cold path: first touch of a populated
  // entry is the miss a lazy run would have paid, repeat touches hit,
  // untouched entries never count.
  EXPECT_EQ(eager.hits(), lazy.hits());
  EXPECT_EQ(eager.misses(), lazy.misses());
  EXPECT_EQ(eager.warm_remaining(),
            carriers.size() - (carriers.size() + 1) / 2);
  ASSERT_EQ(eager_images.size(), lazy_images.size());
  for (std::size_t i = 0; i < eager_images.size(); ++i) {
    expect_same_image(eager_images[i], lazy_images[i]);
  }
}

TEST(DeltaImagePopulate, EagerAccountingMatchesLazyPath) {
  expect_populate_matches_lazy(zoo::hourglass());
  zoo::RandomTaskParams params;
  params.seed = 29;
  expect_populate_matches_lazy(zoo::random_task(params));
}

TEST(DeltaImagePopulate, SkipsExistingEntriesAndIsIdempotent) {
  const Task task = zoo::hourglass();
  std::vector<Simplex> carriers;
  for (const Simplex& s : task.input.all_simplices()) {
    if (!s.empty()) carriers.push_back(s);
  }
  DeltaImageCache cache;
  // Fault one entry in the ordinary lazy way first; populate must leave it
  // (and its already-charged miss) alone.
  const CompiledComplex* before = cache.image_of(task.delta, carriers.front());
  EXPECT_EQ(cache.misses(), 1u);
  cache.populate(task.delta, carriers);
  cache.populate(task.delta, carriers);  // second call: all cached, no-op
  EXPECT_EQ(cache.size(), carriers.size());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.image_of(task.delta, carriers.front()), before);
  EXPECT_EQ(cache.hits(), 1u);
}

}  // namespace
}  // namespace trichroma
