// Tests for LAP detection (Section 4 definitions).

#include <gtest/gtest.h>

#include "core/lap.h"
#include "tasks/canonical.h"
#include "tasks/zoo.h"
#include "topology/graph.h"

namespace trichroma {
namespace {

TEST(Lap, HourglassHasExactlyOneLap) {
  const Task t = zoo::hourglass();
  const auto laps = find_all_laps(t);
  ASSERT_EQ(laps.size(), 1u);
  EXPECT_EQ(t.pool->color(laps[0].vertex), 0);  // P0's vertex
  EXPECT_EQ(laps[0].link.count, 2u);
  const auto components = laps[0].link.groups();
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0].size(), 2u);
  EXPECT_EQ(components[1].size(), 2u);
}

TEST(Lap, PinwheelHasSixLaps) {
  const auto laps = find_all_laps(zoo::pinwheel());
  EXPECT_EQ(laps.size(), 6u);
  for (const auto& lap : laps) {
    EXPECT_EQ(lap.link.count, 2u);
  }
}

TEST(Lap, SetAgreementHasNoLaps) {
  // Full 2-set agreement keeps all 21 triangles; every link is connected.
  EXPECT_TRUE(find_all_laps(zoo::set_agreement_32()).empty());
  EXPECT_TRUE(zoo::set_agreement_32().is_link_connected());
}

TEST(Lap, SubdivisionTaskHasNoLaps) {
  EXPECT_TRUE(find_all_laps(zoo::subdivision_task(1)).empty());
}

TEST(Lap, MajorityConsensusCanonicalHasLaps) {
  // The Fig. 1 story: after canonicalization, majority consensus has LAPs.
  const Task star = canonicalize(zoo::majority_consensus());
  EXPECT_FALSE(find_all_laps(star).empty());
}

TEST(Lap, FirstLapIsSmallestVertex) {
  const Task t = zoo::pinwheel();
  const Simplex sigma = t.input.facets().front();
  const auto laps = find_laps(t, sigma);
  ASSERT_GE(laps.size(), 2u);
  const auto first = first_lap(t, sigma);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->vertex, laps.front().vertex);
  for (const auto& lap : laps) {
    EXPECT_LE(raw(laps.front().vertex), raw(lap.vertex));
  }
}

TEST(Lap, LapsArePerFacet) {
  // A LAP is relative to a facet σ: a vertex may have a disconnected link
  // w.r.t. one facet but not another. In majority consensus (canonical),
  // count per-facet records and check each against its own image.
  const Task star = canonicalize(zoo::majority_consensus());
  for (const auto& lap : find_all_laps(star)) {
    const SimplicialComplex image = star.delta.image_complex(lap.facet);
    const auto components = connected_components(image.link(lap.vertex));
    EXPECT_GE(components.size(), 2u);
    EXPECT_EQ(lap.link.groups(), components);
  }
}

}  // namespace
}  // namespace trichroma
