// End-to-end verdict tests for the combined decision procedure
// (Theorem 5.1 wired both ways), including the two-process exact decision
// (Proposition 5.4).

#include <gtest/gtest.h>

#include "protocols/verify.h"
#include "solver/pipeline.h"
#include "tasks/zoo.h"

namespace trichroma {
namespace {

TEST(Solvability, IdentitySolvable) {
  const PipelineResult r = run_pipeline(zoo::identity_task());
  EXPECT_EQ(r.report.verdict, Verdict::Solvable);
  EXPECT_EQ(r.report.radius, 0);
  EXPECT_TRUE(r.has_chromatic_witness);
}

TEST(Solvability, SubdivisionTasksSolvableAtTheirRadius) {
  for (int rounds = 0; rounds <= 2; ++rounds) {
    const PipelineResult r = run_pipeline(zoo::subdivision_task(rounds));
    EXPECT_EQ(r.report.verdict, Verdict::Solvable);
    EXPECT_EQ(r.report.radius, rounds);
  }
}

TEST(Solvability, RenamingSolvable) {
  const PipelineResult r = run_pipeline(zoo::renaming(5));
  EXPECT_EQ(r.report.verdict, Verdict::Solvable);
}

TEST(Solvability, ApproximateAgreementSolvable) {
  const PipelineResult r = run_pipeline(zoo::approximate_agreement(2));
  EXPECT_EQ(r.report.verdict, Verdict::Solvable);
}

TEST(Solvability, ConsensusUnsolvable) {
  const PipelineResult r = run_pipeline(zoo::consensus(3));
  EXPECT_EQ(r.report.verdict, Verdict::Unsolvable);
  EXPECT_TRUE(r.report.via_characterization);
}

TEST(Solvability, SetAgreementUnsolvable) {
  // The classic impossibility — caught by the homological engine, since
  // 2-set agreement has no LAPs at all.
  const PipelineResult r = run_pipeline(zoo::set_agreement_32());
  EXPECT_EQ(r.report.verdict, Verdict::Unsolvable);
}

TEST(Solvability, HourglassUnsolvableDespiteColorlessMap) {
  const Task t = zoo::hourglass();
  const PipelineResult r = run_pipeline(t);
  EXPECT_EQ(r.report.verdict, Verdict::Unsolvable);
  // The colorless probe demonstrates the gap the paper's characterization
  // explains: the colorless ACT condition holds.
  EXPECT_TRUE(colorless_probe(t, 2).found);
}

TEST(Solvability, PinwheelUnsolvable) {
  const PipelineResult r = run_pipeline(zoo::pinwheel());
  EXPECT_EQ(r.report.verdict, Verdict::Unsolvable);
}

TEST(Solvability, MajorityConsensusUnsolvable) {
  const PipelineResult r = run_pipeline(zoo::majority_consensus());
  EXPECT_EQ(r.report.verdict, Verdict::Unsolvable);
}

TEST(Solvability, LoopAgreementVerdicts) {
  EXPECT_EQ(run_pipeline(zoo::loop_agreement_filled_triangle()).report.verdict,
            Verdict::Solvable);
  EXPECT_EQ(run_pipeline(zoo::loop_agreement_hollow_triangle()).report.verdict,
            Verdict::Unsolvable);
}

TEST(Solvability, Fig3RunningExampleSolvable) {
  // Δ offers a full facet for every input facet; constant-per-facet maps
  // exist at radius 0.
  const PipelineResult r = run_pipeline(zoo::fig3_running_example());
  EXPECT_EQ(r.report.verdict, Verdict::Solvable);
}

// Two processes: run_pipeline's exact branch, one Proposition 5.4 engine.
void expect_exact_two_process(const PipelineResult& r) {
  EXPECT_EQ(r.report.schedule, "exact");
  ASSERT_EQ(r.report.engines.size(), 1u);
  EXPECT_EQ(r.report.engines[0].name, "two-process-csp");
  EXPECT_EQ(r.report.engines[0].status, EngineStatus::Conclusive);
}

TEST(TwoProcess, ConsensusUnsolvable) {
  const PipelineResult r = run_pipeline(zoo::consensus_2());
  EXPECT_EQ(r.report.verdict, Verdict::Unsolvable);
  EXPECT_EQ(r.report.reason,
            "Proposition 5.4: no continuous map |I| -> |O| carried by Δ (no "
            "corner assignment is component-consistent on every input edge)");
  expect_exact_two_process(r);
}

TEST(TwoProcess, ApproximateAgreementSolvable) {
  const PipelineResult r = run_pipeline(zoo::approximate_agreement_2(2));
  EXPECT_EQ(r.report.verdict, Verdict::Solvable);
  EXPECT_EQ(r.report.reason,
            "Proposition 5.4: a corner assignment with connected edge images "
            "exists, giving a continuous map |I| -> |O| carried by Δ");
  expect_exact_two_process(r);
}

TEST(Solvability, WitnessValidatesIndependently) {
  const Task t = zoo::subdivision_task(1);
  const PipelineResult r = run_pipeline(t);
  ASSERT_TRUE(r.has_chromatic_witness);
  ASSERT_NE(r.witness_domain, nullptr);
  // The witness is a map on Ch^radius(I) in t's own pool: check it against
  // the probe's domain, and model-check it on every IIS execution.
  EXPECT_TRUE(
      validate_decision_map(*t.pool, *r.witness_domain, t, r.witness, true));
  const auto check =
      protocols::verify_decision_map(t, r.witness, r.report.radius);
  EXPECT_TRUE(check.ok) << check.first_failure;
  EXPECT_GT(check.executions, 0u);
}

TEST(Solvability, CharacterizationReportPopulated) {
  const PipelineResult r = run_pipeline(zoo::pinwheel());
  ASSERT_NE(r.characterization, nullptr);
  EXPECT_EQ(r.characterization->splits.size(), 6u);
  EXPECT_EQ(r.characterization->output_components_after, 3u);
  EXPECT_FALSE(r.report.reason.empty());
}


TEST(Solvability, TwistedHourglassUnsolvable) {
  const PipelineResult r = run_pipeline(zoo::twisted_hourglass());
  EXPECT_EQ(r.report.verdict, Verdict::Unsolvable);
  // Unlike the real hourglass, no colorless solution exists either.
  EXPECT_FALSE(colorless_probe(zoo::twisted_hourglass(), 2).found);
}


TEST(Solvability, TestAndSetUnsolvable) {
  EXPECT_EQ(run_pipeline(zoo::test_and_set(3)).report.verdict, Verdict::Unsolvable);
  EXPECT_EQ(run_pipeline(zoo::test_and_set(2)).report.verdict, Verdict::Unsolvable);
}

TEST(Solvability, WeakSymmetryBreakingSolvableWithIds) {
  const PipelineResult r = run_pipeline(zoo::weak_symmetry_breaking(3));
  EXPECT_EQ(r.report.verdict, Verdict::Solvable);
  EXPECT_EQ(r.report.radius, 0);  // id-based decision, no communication
}


TEST(Solvability, SurfaceLoopAgreementUnsolvable) {
  // Non-contractible loops on closed surfaces: the torus loop generates
  // free H1; RP2's essential loop is 2-torsion. Both refuted.
  SolvabilityOptions options;
  options.max_radius = 1;
  EXPECT_EQ(run_pipeline(zoo::loop_agreement_torus(), options).report.verdict,
            Verdict::Unsolvable);
  EXPECT_EQ(
      run_pipeline(zoo::loop_agreement_projective_plane(), options).report.verdict,
      Verdict::Unsolvable);
}

TEST(Solvability, ColdAndLadderProbesAgree) {
  // reuse_subdivisions / reuse_images off reproduces the seed engine; the
  // verdict and radius must not depend on the caching strategy.
  SolvabilityOptions cold;
  cold.reuse_subdivisions = false;
  cold.reuse_images = false;
  for (const zoo::CatalogEntry& entry : zoo::catalog()) {
    const PipelineResult a = run_pipeline(entry.build());
    const PipelineResult b = run_pipeline(entry.build(), cold);
    EXPECT_EQ(a.report.verdict, b.report.verdict) << entry.name;
    EXPECT_EQ(a.report.radius, b.report.radius) << entry.name;
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
  const PipelineResult r = run_pipeline(zoo::set_agreement_32(), options);
  ASSERT_EQ(r.report.verdict, Verdict::Unknown);
  EXPECT_NE(r.report.reason.find("chromatic probe at radius"), std::string::npos)
      << r.report.reason;
  EXPECT_NE(r.report.reason.find("node cap"), std::string::npos) << r.report.reason;
}

}  // namespace
}  // namespace trichroma
