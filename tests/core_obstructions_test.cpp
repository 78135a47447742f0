// Tests for the impossibility engines: Corollaries 5.5 / 5.6, the
// connectivity CSP, and the GF(2)/GF(3) homological boundary obstruction.

#include <gtest/gtest.h>

#include "core/characterization.h"
#include "core/obstructions.h"
#include "tasks/canonical.h"
#include "tasks/zoo.h"
#include "topology/graph.h"

namespace trichroma {
namespace {

TEST(Corollary55, FiresOnHourglass) {
  // §6.1: every Δ(x0) → Δ(x1) path crosses the LAP y.
  const CorollaryResult r = corollary_5_5(zoo::hourglass());
  EXPECT_TRUE(r.fires);
  EXPECT_FALSE(r.detail.empty());
}

TEST(Corollary55, MajorityConsensusSeparatesAtFacetLevel) {
  // Fig. 1's task. Pre-split, solo images are directly adjacent across
  // every single edge, so the literal (edge-level) Corollary 5.5 is silent
  // both before and after splitting; the paper's "two disconnected
  // components" argument chains across a whole facet, which is exactly the
  // connectivity CSP. Each mixed-input facet's split image indeed has two
  // components.
  EXPECT_FALSE(corollary_5_5(canonicalize(zoo::majority_consensus())).fires);
  const CharacterizationResult c = characterize(zoo::majority_consensus());
  const Task& tp = c.link_connected;
  std::size_t split_facets = 0;
  for (const Simplex& sigma : tp.input.simplices(2)) {
    const auto n = component_count(tp.delta.image_complex(sigma));
    if (n >= 2) ++split_facets;
  }
  EXPECT_EQ(split_facets, 6u);  // all but the two uniform-input facets
  EXPECT_FALSE(connectivity_csp(tp).feasible);
}

TEST(Corollary55, SilentOnSolvableTasks) {
  EXPECT_FALSE(corollary_5_5(zoo::identity_task()).fires);
  EXPECT_FALSE(corollary_5_5(zoo::subdivision_task(1)).fires);
  EXPECT_FALSE(corollary_5_5(canonicalize(zoo::approximate_agreement(2))).fires);
  EXPECT_FALSE(corollary_5_5(zoo::renaming(5)).fires);
}

TEST(Corollary55, SilentOnPinwheel) {
  // §6.2: "we cannot directly use Corollary 5.5, because there is still a
  // path between vertices in Δ(x) and Δ(x') for each input edge".
  EXPECT_FALSE(corollary_5_5(canonicalize(zoo::pinwheel())).fires);
}

TEST(Corollary56, FiresOnPinwheel) {
  // §6.2's argument: every cycle in Δ(Skel¹I) goes through a LAP, and no
  // crossing-free boundary walk closes up across the three blades.
  const CorollaryResult r = corollary_5_6(canonicalize(zoo::pinwheel()));
  EXPECT_TRUE(r.fires);
}

TEST(Corollary56, SilentOnHourglass) {
  // The hourglass's crossing-free skeleton still carries a cycle, so the
  // premise "every cycle goes through a LAP" fails.
  EXPECT_FALSE(corollary_5_6(zoo::hourglass()).fires);
}

TEST(Corollary56, SilentOnSolvableAndMultiFacetTasks) {
  EXPECT_FALSE(corollary_5_6(zoo::subdivision_task(1)).fires);
  EXPECT_FALSE(corollary_5_6(zoo::identity_task()).fires);
  // Multi-facet inputs: the corollary is stated for a single triangle.
  EXPECT_FALSE(corollary_5_6(canonicalize(zoo::consensus(3))).fires);
}

TEST(ConnectivityCsp, FeasibleOnSolvableTasks) {
  EXPECT_TRUE(connectivity_csp(zoo::identity_task()).feasible);
  EXPECT_TRUE(connectivity_csp(zoo::subdivision_task(1)).feasible);
  EXPECT_TRUE(connectivity_csp(zoo::approximate_agreement(2)).feasible);
}

TEST(ConnectivityCsp, InfeasibleOnConsensus) {
  // Mixed-input edges have disconnected images: consensus dies already at
  // the 1-dimensional level.
  const ConnectivityCsp csp = connectivity_csp(zoo::consensus(3));
  EXPECT_FALSE(csp.feasible);
  EXPECT_TRUE(csp.exhausted);
}

TEST(ConnectivityCsp, InfeasibleOnSplitHourglass) {
  const CharacterizationResult c = characterize(zoo::hourglass());
  EXPECT_FALSE(connectivity_csp(c.link_connected).feasible);
}

TEST(ConnectivityCsp, InfeasibleOnSplitPinwheel) {
  const CharacterizationResult c = characterize(zoo::pinwheel());
  EXPECT_FALSE(connectivity_csp(c.link_connected).feasible);
}

TEST(ConnectivityCsp, InfeasibleOnSplitMajorityConsensus) {
  const CharacterizationResult c = characterize(zoo::majority_consensus());
  EXPECT_FALSE(connectivity_csp(c.link_connected).feasible);
}

TEST(ConnectivityCsp, WitnessIsConsistent) {
  const Task t = zoo::approximate_agreement(2);
  const ConnectivityCsp csp = connectivity_csp(t);
  ASSERT_TRUE(csp.feasible);
  for (VertexId x : t.input.vertex_ids()) {
    ASSERT_TRUE(csp.witness.count(x) > 0);
    EXPECT_TRUE(t.delta.image_complex(Simplex::single(x))
                    .contains_vertex(csp.witness.at(x)));
  }
}

TEST(Homology, FeasibleOnSolvableTasks) {
  EXPECT_TRUE(homology_boundary_check(zoo::identity_task()).feasible);
  EXPECT_TRUE(homology_boundary_check(zoo::subdivision_task(1)).feasible);
  EXPECT_TRUE(homology_boundary_check(zoo::renaming(5)).feasible);
}

TEST(Homology, InfeasibleOnSetAgreement) {
  // The classic impossibility: the boundary loop of 2-set agreement wraps
  // the annular hole and never bounds — no LAPs involved.
  const HomologyObstruction h = homology_boundary_check(zoo::set_agreement_32());
  EXPECT_FALSE(h.feasible);
  EXPECT_TRUE(h.exhausted);
}

TEST(Homology, InfeasibleOnHollowLoopAgreement) {
  const HomologyObstruction h =
      homology_boundary_check(zoo::loop_agreement_hollow_triangle());
  EXPECT_FALSE(h.feasible);
}

TEST(Homology, CappedSearchReportsNoRefutation) {
  // A search cut short by its node cap proves nothing, so its detail must
  // not read as a refutation (as "no corner assignment passes" or "never
  // bounds" would).
  const HomologyObstruction h =
      homology_boundary_check(zoo::loop_agreement_hollow_triangle(), {2, 3}, 1);
  EXPECT_FALSE(h.feasible);
  EXPECT_FALSE(h.exhausted);
  EXPECT_EQ(h.detail, "search capped before exhausting assignments");
}

TEST(Homology, FeasibleOnFilledLoopAgreement) {
  EXPECT_TRUE(homology_boundary_check(zoo::loop_agreement_filled_triangle()).feasible);
}

TEST(Homology, FeasibleOnHourglassPreSplit) {
  // The hourglass boundary loop is null-homotopic (the colorless ACT
  // condition holds), so the homological engine must not fire pre-split.
  EXPECT_TRUE(homology_boundary_check(zoo::hourglass()).feasible);
}

TEST(Homology, PinwheelPreSplitHasNoContinuousMap) {
  // §6.2: unlike the hourglass, the pinwheel has no continuous map even
  // colorlessly.
  const HomologyObstruction h = homology_boundary_check(zoo::pinwheel());
  EXPECT_FALSE(h.feasible);
}


TEST(Homology, TwistedHourglassNeedsGf3) {
  // The twisted hourglass's boundary walk is the square of the waist loop:
  // invisible over GF(2), refuted over GF(3). This is why the boundary
  // check runs over both primes.
  const Task t = zoo::twisted_hourglass();
  ASSERT_TRUE(t.validate().empty());
  const HomologyObstruction h = homology_boundary_check(t);
  EXPECT_FALSE(h.feasible);
  EXPECT_NE(h.detail.find("GF(3)"), std::string::npos) << h.detail;
}

TEST(Homology, UntwistedHourglassPassesBothPrimes) {
  // Control: the genuine hourglass's walk cancels (alpha^-1 beta beta^-1
  // alpha), so neither prime refutes it.
  EXPECT_TRUE(homology_boundary_check(zoo::hourglass()).feasible);
}


TEST(Homology, SurfaceLoopAgreementRefuted) {
  // The torus loop generates H1 (free part): refuted over both primes.
  EXPECT_FALSE(homology_boundary_check(zoo::loop_agreement_torus()).feasible);
  // RP2's essential loop is 2-torsion: H1(RP2; GF(2)) = Z2 sees it.
  EXPECT_FALSE(
      homology_boundary_check(zoo::loop_agreement_projective_plane()).feasible);
}

}  // namespace
}  // namespace trichroma
