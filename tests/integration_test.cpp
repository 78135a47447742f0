// Integration tests: the engines must agree with each other and with the
// paper's worked examples, end to end.

#include <gtest/gtest.h>

#include "core/characterization.h"
#include "core/obstructions.h"
#include "protocols/pipeline.h"
#include "solver/pipeline.h"
#include "tasks/canonical.h"
#include "tasks/zoo.h"
#include "topology/graph.h"
#include "topology/homology.h"

namespace trichroma {
namespace {

TEST(Integration, VerdictTableMatchesTheory) {
  struct Row {
    Task task;
    Verdict expected;
  };
  const std::vector<Row> table = {
      {zoo::identity_task(), Verdict::Solvable},
      {zoo::renaming(5), Verdict::Solvable},
      {zoo::subdivision_task(0), Verdict::Solvable},
      {zoo::subdivision_task(1), Verdict::Solvable},
      {zoo::approximate_agreement(2), Verdict::Solvable},
      {zoo::fig3_running_example(), Verdict::Solvable},
      {zoo::loop_agreement_filled_triangle(), Verdict::Solvable},
      {zoo::consensus(3), Verdict::Unsolvable},
      {zoo::set_agreement_32(), Verdict::Unsolvable},
      {zoo::majority_consensus(), Verdict::Unsolvable},
      {zoo::hourglass(), Verdict::Unsolvable},
      {zoo::pinwheel(), Verdict::Unsolvable},
      {zoo::loop_agreement_hollow_triangle(), Verdict::Unsolvable},
      {zoo::consensus_2(), Verdict::Unsolvable},
      {zoo::approximate_agreement_2(2), Verdict::Solvable},
  };
  for (const Row& row : table) {
    const PipelineResult r = run_pipeline(row.task);
    EXPECT_EQ(r.report.verdict, row.expected)
        << row.task.name << ": " << r.report.reason;
  }
}

TEST(Integration, Hourglass61Story) {
  // The complete §6.1 narrative in one place.
  const Task t = zoo::hourglass();
  // (a) the colorless ACT condition holds: a color-agnostic map exists;
  EXPECT_TRUE(colorless_probe(t, 2).found);
  // (b) yet the chromatic task is unsolvable;
  EXPECT_EQ(run_pipeline(t).report.verdict, Verdict::Unsolvable);
  // (c) the obstruction is the LAP: splitting it drops the impossibility
  //     "dimension" to a consensus-style disconnection (Corollary 5.5);
  const CharacterizationResult c = characterize(t);
  ASSERT_EQ(c.splits.size(), 1u);
  EXPECT_TRUE(corollary_5_5(c.canonical).fires);
  EXPECT_FALSE(connectivity_csp(c.link_connected).feasible);
  // (d) and the split complex has no hole left (the waist ring opened up).
  EXPECT_EQ(c.output_betti_before.b1, 1);
  EXPECT_EQ(c.output_betti_after.b1, 0);
}

TEST(Integration, Pinwheel62Story) {
  const Task t = zoo::pinwheel();
  // (a) no continuous map even colorlessly (contrast with the hourglass);
  EXPECT_FALSE(homology_boundary_check(t).feasible);
  // (b) Corollary 5.5 is silent, Corollary 5.6 fires;
  const Task star = canonicalize(t);
  EXPECT_FALSE(corollary_5_5(star).fires);
  EXPECT_TRUE(corollary_5_6(star).fires);
  // (c) splitting the six LAPs yields three blades;
  const CharacterizationResult c = characterize(t);
  EXPECT_EQ(c.splits.size(), 6u);
  EXPECT_EQ(c.output_components_after, 3u);
  // (d) and no blade contains an output for every process's input.
  EXPECT_FALSE(connectivity_csp(c.link_connected).feasible);
}

TEST(Integration, SplittingPreservesSolvabilityOnRandomTasks) {
  // Lemma 4.2, empirically: if the original task has a chromatic decision
  // map at radius <= 1, the split task must admit a color-agnostic one; if
  // the split task is obstructed, the original must have no map.
  int solvable_seen = 0, obstructed_seen = 0;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    zoo::RandomTaskParams params;
    params.seed = seed;
    params.num_input_facets = 1 + static_cast<int>(seed % 3);
    const Task t = zoo::random_task(params);
    const SolvabilityOptions options{.max_radius = 1};
    const PipelineResult direct = run_pipeline(t, options);
    const CharacterizationResult c = characterize(t);
    const ConnectivityCsp csp = connectivity_csp(c.link_connected);
    const HomologyObstruction hom = homology_boundary_check(c.link_connected);
    if (direct.report.verdict == Verdict::Solvable) {
      ++solvable_seen;
      EXPECT_TRUE(csp.feasible) << t.name;
      EXPECT_TRUE(hom.feasible) << t.name;
    }
    if (!csp.feasible || !hom.feasible) {
      ++obstructed_seen;
      EXPECT_NE(direct.report.verdict, Verdict::Solvable) << t.name;
    }
  }
  // The sweep must actually exercise both sides.
  EXPECT_GT(solvable_seen, 0);
  EXPECT_GT(obstructed_seen, 0);
}

TEST(Integration, EndToEndSolverAgreesWithVerdict) {
  // Whenever run_pipeline says Solvable for a single-facet task, the
  // end-to-end protocol stack must execute correctly.
  const std::vector<Task> tasks = {zoo::subdivision_task(1), zoo::renaming(4),
                                   zoo::identity_task()};
  for (const Task& t : tasks) {
    ASSERT_EQ(run_pipeline(t).report.verdict, Verdict::Solvable) << t.name;
    const auto solver = protocols::build_end_to_end(t, 2);
    ASSERT_TRUE(solver.has_value()) << t.name;
    const Simplex facet = t.input.facets().front();
    std::vector<std::pair<int, VertexId>> inputs;
    for (int i = 0; i < 3; ++i) inputs.emplace_back(i, facet[static_cast<std::size_t>(i)]);
    for (int seed = 0; seed < 8; ++seed) {
      EXPECT_TRUE(protocols::run_end_to_end(*solver, t, inputs,
                                            static_cast<std::uint64_t>(seed))
                      .valid)
          << t.name << " seed " << seed;
    }
  }
}

TEST(Integration, CharacterizationIdempotentOnLinkConnectedTasks) {
  // Splitting a link-connected task is a no-op.
  const Task t = zoo::subdivision_task(1);
  const CharacterizationResult c = characterize(t);
  EXPECT_TRUE(c.splits.empty());
  EXPECT_EQ(c.output_components_before, c.output_components_after);
}

TEST(Integration, ReportsAreHumanReadable) {
  const CharacterizationResult c = characterize(zoo::pinwheel());
  const std::string report = c.report(*c.canonical.pool);
  EXPECT_NE(report.find("splits performed: 6"), std::string::npos);
  EXPECT_NE(report.find("components: 1 -> 3"), std::string::npos);
}

TEST(Integration, SolvableVerdictsComeWithProtocols) {
  // A Solvable verdict with a chromatic witness must validate as a
  // decision map — the verdict *is* an algorithm.
  const Task t = zoo::approximate_agreement(2);
  const PipelineResult r = run_pipeline(t);
  ASSERT_EQ(r.report.verdict, Verdict::Solvable);
  ASSERT_TRUE(r.has_chromatic_witness);
  ASSERT_NE(r.witness_domain, nullptr);
  EXPECT_TRUE(
      validate_decision_map(*t.pool, *r.witness_domain, t, r.witness, true));
}

}  // namespace
}  // namespace trichroma
