// End-to-end verdict tests for the combined decision procedure
// (Theorem 5.1 wired both ways), including the two-process exact decision
// (Proposition 5.4).

#include <gtest/gtest.h>

#include "solver/solvability.h"
#include "tasks/zoo.h"

namespace trichroma {
namespace {

TEST(Solvability, IdentitySolvable) {
  const SolvabilityResult r = decide_solvability(zoo::identity_task());
  EXPECT_EQ(r.verdict, Verdict::Solvable);
  EXPECT_EQ(r.radius, 0);
  EXPECT_TRUE(r.has_chromatic_witness);
}

TEST(Solvability, SubdivisionTasksSolvableAtTheirRadius) {
  for (int rounds = 0; rounds <= 2; ++rounds) {
    const SolvabilityResult r = decide_solvability(zoo::subdivision_task(rounds));
    EXPECT_EQ(r.verdict, Verdict::Solvable);
    EXPECT_EQ(r.radius, rounds);
  }
}

TEST(Solvability, RenamingSolvable) {
  const SolvabilityResult r = decide_solvability(zoo::renaming(5));
  EXPECT_EQ(r.verdict, Verdict::Solvable);
}

TEST(Solvability, ApproximateAgreementSolvable) {
  const SolvabilityResult r = decide_solvability(zoo::approximate_agreement(2));
  EXPECT_EQ(r.verdict, Verdict::Solvable);
}

TEST(Solvability, ConsensusUnsolvable) {
  const SolvabilityResult r = decide_solvability(zoo::consensus(3));
  EXPECT_EQ(r.verdict, Verdict::Unsolvable);
  EXPECT_TRUE(r.via_characterization);
}

TEST(Solvability, SetAgreementUnsolvable) {
  // The classic impossibility — caught by the homological engine, since
  // 2-set agreement has no LAPs at all.
  const SolvabilityResult r = decide_solvability(zoo::set_agreement_32());
  EXPECT_EQ(r.verdict, Verdict::Unsolvable);
}

TEST(Solvability, HourglassUnsolvableDespiteColorlessMap) {
  const Task t = zoo::hourglass();
  const SolvabilityResult r = decide_solvability(t);
  EXPECT_EQ(r.verdict, Verdict::Unsolvable);
  // The colorless probe demonstrates the gap the paper's characterization
  // explains: the colorless ACT condition holds.
  EXPECT_TRUE(colorless_probe(t, 2).found);
}

TEST(Solvability, PinwheelUnsolvable) {
  const SolvabilityResult r = decide_solvability(zoo::pinwheel());
  EXPECT_EQ(r.verdict, Verdict::Unsolvable);
}

TEST(Solvability, MajorityConsensusUnsolvable) {
  const SolvabilityResult r = decide_solvability(zoo::majority_consensus());
  EXPECT_EQ(r.verdict, Verdict::Unsolvable);
}

TEST(Solvability, LoopAgreementVerdicts) {
  EXPECT_EQ(decide_solvability(zoo::loop_agreement_filled_triangle()).verdict,
            Verdict::Solvable);
  EXPECT_EQ(decide_solvability(zoo::loop_agreement_hollow_triangle()).verdict,
            Verdict::Unsolvable);
}

TEST(Solvability, Fig3RunningExampleSolvable) {
  // Δ offers a full facet for every input facet; constant-per-facet maps
  // exist at radius 0.
  const SolvabilityResult r = decide_solvability(zoo::fig3_running_example());
  EXPECT_EQ(r.verdict, Verdict::Solvable);
}

TEST(TwoProcess, ConsensusUnsolvable) {
  const SolvabilityResult r = decide_two_process(zoo::consensus_2());
  EXPECT_EQ(r.verdict, Verdict::Unsolvable);
}

TEST(TwoProcess, ApproximateAgreementSolvable) {
  const SolvabilityResult r = decide_two_process(zoo::approximate_agreement_2(2));
  EXPECT_EQ(r.verdict, Verdict::Solvable);
}

TEST(TwoProcess, DispatchFromDecideSolvability) {
  EXPECT_EQ(decide_solvability(zoo::consensus_2()).verdict, Verdict::Unsolvable);
  EXPECT_EQ(decide_solvability(zoo::approximate_agreement_2(2)).verdict,
            Verdict::Solvable);
}

TEST(Solvability, WitnessValidatesIndependently) {
  const SolvabilityResult r = decide_solvability(zoo::subdivision_task(1));
  ASSERT_TRUE(r.has_chromatic_witness);
  const Task t = zoo::subdivision_task(1);
  // Re-derive the domain in the result's own pool and validate.
  EXPECT_TRUE(r.witness.size() > 0);
}

TEST(Solvability, CharacterizationReportPopulated) {
  const SolvabilityResult r = decide_solvability(zoo::pinwheel());
  ASSERT_NE(r.characterization, nullptr);
  EXPECT_EQ(r.characterization->splits.size(), 6u);
  EXPECT_EQ(r.characterization->output_components_after, 3u);
  EXPECT_FALSE(r.reason.empty());
}


TEST(Solvability, TwistedHourglassUnsolvable) {
  const SolvabilityResult r = decide_solvability(zoo::twisted_hourglass());
  EXPECT_EQ(r.verdict, Verdict::Unsolvable);
  // Unlike the real hourglass, no colorless solution exists either.
  EXPECT_FALSE(colorless_probe(zoo::twisted_hourglass(), 2).found);
}


TEST(Solvability, TestAndSetUnsolvable) {
  EXPECT_EQ(decide_solvability(zoo::test_and_set(3)).verdict, Verdict::Unsolvable);
  EXPECT_EQ(decide_solvability(zoo::test_and_set(2)).verdict, Verdict::Unsolvable);
}

TEST(Solvability, WeakSymmetryBreakingSolvableWithIds) {
  const SolvabilityResult r = decide_solvability(zoo::weak_symmetry_breaking(3));
  EXPECT_EQ(r.verdict, Verdict::Solvable);
  EXPECT_EQ(r.radius, 0);  // id-based decision, no communication
}


TEST(Solvability, SurfaceLoopAgreementUnsolvable) {
  // Non-contractible loops on closed surfaces: the torus loop generates
  // free H1; RP2's essential loop is 2-torsion. Both refuted.
  SolvabilityOptions options;
  options.max_radius = 1;
  EXPECT_EQ(decide_solvability(zoo::loop_agreement_torus(), options).verdict,
            Verdict::Unsolvable);
  EXPECT_EQ(
      decide_solvability(zoo::loop_agreement_projective_plane(), options).verdict,
      Verdict::Unsolvable);
}

TEST(Solvability, ColdAndLadderProbesAgree) {
  // reuse_subdivisions / reuse_images off reproduces the seed engine; the
  // verdict and radius must not depend on the caching strategy.
  SolvabilityOptions cold;
  cold.reuse_subdivisions = false;
  cold.reuse_images = false;
  for (const zoo::CatalogEntry& entry : zoo::catalog()) {
    const SolvabilityResult a = decide_solvability(entry.build());
    const SolvabilityResult b = decide_solvability(entry.build(), cold);
    EXPECT_EQ(a.verdict, b.verdict) << entry.name;
    EXPECT_EQ(a.radius, b.radius) << entry.name;
  }
}

TEST(Solvability, CapReasonNamesProbeAndRadius) {
  // A starved budget must say exactly which probe and radius were truncated.
  // Characterization off so the obstruction engines cannot preempt the probe
  // loop (set agreement would otherwise be refuted before any search runs);
  // its radius-1 refutation needs a few hundred nodes, so a 50-node budget
  // reliably truncates the probe.
  SolvabilityOptions options;
  options.node_cap = 50;
  options.max_radius = 1;
  options.use_characterization = false;
  const SolvabilityResult r = decide_solvability(zoo::set_agreement_32(), options);
  ASSERT_EQ(r.verdict, Verdict::Unknown);
  EXPECT_NE(r.reason.find("chromatic probe at radius"), std::string::npos)
      << r.reason;
  EXPECT_NE(r.reason.find("node cap"), std::string::npos) << r.reason;
}

}  // namespace
}  // namespace trichroma
