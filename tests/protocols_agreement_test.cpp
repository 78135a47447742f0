// Tests for the Figure-7 chromatic agreement algorithm (Lemma 5.3) and the
// end-to-end Theorem 5.1 pipeline: color-agnostic solution + chromatic
// completion, executed on the shared-memory simulator, decisions checked
// against Δ.

#include <gtest/gtest.h>

#include "protocols/chromatic_agreement.h"
#include "protocols/pipeline.h"
#include "protocols/verify.h"
#include "solver/solvability.h"
#include "tasks/zoo.h"

namespace trichroma {
namespace {

using protocols::AgreementOutcome;
using protocols::ColorlessAlgorithm;
using protocols::build_end_to_end;
using protocols::outcomes_valid;
using protocols::run_agreement;
using protocols::run_end_to_end;
using protocols::synthesize_colorless;

/// Runs the Figure-7 algorithm on `task` (must be link-connected) for every
/// participant subset of the given input facet, across many random
/// schedules, asserting chromatic Δ-valid outcomes each time.
void exercise_agreement(const Task& task, const Simplex& facet, int max_radius,
                        int seeds) {
  const auto algorithm = synthesize_colorless(task, max_radius);
  ASSERT_TRUE(algorithm.has_value()) << task.name;
  for (unsigned mask = 1; mask < 8; ++mask) {
    std::vector<std::pair<int, VertexId>> inputs;
    for (int i = 0; i < 3; ++i) {
      if (mask & (1u << i)) {
        inputs.emplace_back(i, facet[static_cast<std::size_t>(i)]);
      }
    }
    for (int seed = 0; seed < seeds; ++seed) {
      const auto outcomes =
          run_agreement(task, *algorithm, inputs, static_cast<std::uint64_t>(seed));
      EXPECT_TRUE(outcomes_valid(task, inputs, outcomes))
          << task.name << " mask=" << mask << " seed=" << seed;
    }
  }
}

TEST(Agreement, SubdivisionTaskAllParticipantSets) {
  const Task t = zoo::subdivision_task(1);
  exercise_agreement(t, t.input.facets().front(), 1, 40);
}

TEST(Agreement, IdentityTask) {
  const Task t = zoo::identity_task();
  exercise_agreement(t, t.input.facets().front(), 1, 20);
}

TEST(Agreement, RenamingTask) {
  const Task t = zoo::renaming(5);
  exercise_agreement(t, t.input.facets().front(), 1, 30);
}

TEST(Agreement, PivotAlwaysExists) {
  // Claim 2: at least one process is a pivot in every full execution.
  const Task t = zoo::subdivision_task(1);
  const auto algorithm = synthesize_colorless(t, 1);
  ASSERT_TRUE(algorithm.has_value());
  const Simplex facet = t.input.facets().front();
  std::vector<std::pair<int, VertexId>> inputs{
      {0, facet[0]}, {1, facet[1]}, {2, facet[2]}};
  for (int seed = 0; seed < 50; ++seed) {
    const auto outcomes =
        run_agreement(t, *algorithm, inputs, static_cast<std::uint64_t>(seed));
    int pivots = 0;
    for (const auto& o : outcomes) pivots += o.pivot ? 1 : 0;
    EXPECT_GE(pivots, 1) << "seed " << seed;
  }
}

TEST(Agreement, SoloExecutionDecidesImmediately) {
  const Task t = zoo::subdivision_task(1);
  const auto algorithm = synthesize_colorless(t, 1);
  ASSERT_TRUE(algorithm.has_value());
  const Simplex facet = t.input.facets().front();
  const std::vector<std::pair<int, VertexId>> inputs{{1, facet[1]}};
  const auto outcomes = run_agreement(t, *algorithm, inputs, 7);
  ASSERT_TRUE(outcomes[0].decision.has_value());
  EXPECT_TRUE(t.delta.allows(Simplex::single(facet[1]),
                             Simplex::single(*outcomes[0].decision)));
}

TEST(EndToEnd, SubdivisionTaskViaCharacterization) {
  // Full Theorem 5.1 loop on a solvable task: canonicalize, split (no-op),
  // synthesize colorless on T', run Figure-7, translate back, check Δ.
  const Task t = zoo::subdivision_task(1);
  const auto solver = build_end_to_end(t, 1);
  ASSERT_TRUE(solver.has_value());
  const Simplex facet = t.input.facets().front();
  for (unsigned mask = 1; mask < 8; ++mask) {
    std::vector<std::pair<int, VertexId>> inputs;
    for (int i = 0; i < 3; ++i) {
      if (mask & (1u << i)) inputs.emplace_back(i, facet[static_cast<std::size_t>(i)]);
    }
    for (int seed = 0; seed < 10; ++seed) {
      const auto run =
          run_end_to_end(*solver, t, inputs, static_cast<std::uint64_t>(seed));
      EXPECT_TRUE(run.valid) << "mask=" << mask << " seed=" << seed;
    }
  }
}

TEST(EndToEnd, ApproximateAgreementMultiInput) {
  const Task t = zoo::approximate_agreement(2);
  const auto solver = build_end_to_end(t, 2);
  ASSERT_TRUE(solver.has_value());
  // Exercise several input facets of the multi-facet input complex.
  int checked = 0;
  for (const Simplex& facet : t.input.simplices(2)) {
    if (++checked > 4) break;
    std::vector<std::pair<int, VertexId>> inputs;
    for (int i = 0; i < 3; ++i) inputs.emplace_back(i, facet[static_cast<std::size_t>(i)]);
    for (int seed = 0; seed < 5; ++seed) {
      const auto run =
          run_end_to_end(*solver, t, inputs, static_cast<std::uint64_t>(seed));
      EXPECT_TRUE(run.valid) << facet.to_string(*t.pool) << " seed=" << seed;
    }
  }
}

TEST(EndToEnd, TwoProcessTaskRunsOnTheCanonicalTask) {
  // Section 4's splitting is for three processes; with two participants
  // Figure 7 negotiates no link path, so it runs on T* itself.
  const Task t = zoo::approximate_agreement_2(2);
  const auto solver = build_end_to_end(t, 2);
  ASSERT_TRUE(solver.has_value());
  EXPECT_TRUE(solver->characterization.splits.empty());
  for (const Simplex& facet : t.input.simplices(1)) {
    std::vector<std::pair<int, VertexId>> inputs;
    for (VertexId v : facet) inputs.emplace_back(t.pool->color(v), v);
    for (int seed = 1; seed <= 8; ++seed) {
      EXPECT_TRUE(run_end_to_end(*solver, t, inputs, static_cast<std::uint64_t>(seed)).valid)
          << facet.to_string(*t.pool) << " seed=" << seed;
    }
  }
}

TEST(EndToEnd, UnsolvableTasksYieldNoSolver) {
  // For unsolvable tasks the color-agnostic synthesis on T' must fail
  // (Theorem 5.1's possibility direction finds nothing at any radius our
  // budget covers).
  EXPECT_FALSE(build_end_to_end(zoo::hourglass(), 2).has_value());
  EXPECT_FALSE(build_end_to_end(zoo::consensus(3), 1).has_value());
}

TEST(Agreement, LockstepNegotiationConverges) {
  // Adversarial lockstep: P0 runs to completion first (it becomes the pivot
  // with core {center}), then P1 and P2 alternate single steps. With spread
  // anchors on a long fan link, both non-pivots enter the jumping loop
  // concurrently; each round must shrink the gap by two (the paper's
  // "inside the sub-path" invariant). A jump oriented toward the original
  // anchor instead oscillates forever — this is the regression test for
  // that bug.
  const Task t = zoo::fan_task(16);
  const auto algorithm = synthesize_colorless(t, 2);
  ASSERT_TRUE(algorithm.has_value());
  const Simplex facet = t.input.facets().front();

  protocols::AgreementShared shared(3, algorithm->rounds);
  std::vector<AgreementOutcome> outcomes(3);
  std::vector<runtime::ProcessBody> procs;
  for (int i = 0; i < 3; ++i) {
    procs.push_back(protocols::agreement_process(
        shared, t, *algorithm, i, facet[static_cast<std::size_t>(i)],
        outcomes[static_cast<std::size_t>(i)], /*pick_largest=*/i == 1));
  }
  runtime::Executor ex(std::move(procs));
  while (!ex.done(0)) ex.step(runtime::Block{0});
  std::size_t guard = 0;
  while (!ex.all_done()) {
    ASSERT_LT(guard++, 10000u) << "negotiation diverged (lockstep oscillation)";
    if (!ex.done(1)) ex.step(runtime::Block{1});
    if (!ex.done(2)) ex.step(runtime::Block{2});
  }
  std::vector<std::pair<int, VertexId>> inputs{
      {0, facet[0]}, {1, facet[1]}, {2, facet[2]}};
  EXPECT_TRUE(outcomes_valid(t, inputs, outcomes));
  EXPECT_TRUE(outcomes[0].pivot);
  // Both non-pivots genuinely negotiated across the long link.
  EXPECT_GE(outcomes[1].jumps + outcomes[2].jumps, 4u);
}

TEST(Agreement, StepCountTracksLinkLength) {
  // The paper: termination time is proportional to the longest link. The
  // negotiation loop's jump count is bounded by the link diameter.
  const Task t = zoo::subdivision_task(1);
  const auto algorithm = synthesize_colorless(t, 1);
  ASSERT_TRUE(algorithm.has_value());
  const Simplex facet = t.input.facets().front();
  std::vector<std::pair<int, VertexId>> inputs{
      {0, facet[0]}, {1, facet[1]}, {2, facet[2]}};
  for (int seed = 0; seed < 40; ++seed) {
    const auto outcomes =
        run_agreement(t, *algorithm, inputs, static_cast<std::uint64_t>(seed));
    for (const auto& o : outcomes) {
      // Links in Ch¹(σ) have at most 6 vertices; jumps are bounded by the
      // path length.
      EXPECT_LE(o.jumps, 8u);
    }
  }
}


TEST(Verify, ExhaustiveVerificationOfSolverWitnesses) {
  // Every Solvable verdict's witness must survive model checking against
  // all IIS executions of all participant subsets.
  for (const Task& t : {zoo::subdivision_task(1), zoo::identity_task(),
                        zoo::renaming(4), zoo::weak_symmetry_breaking(3)}) {
    const SolvabilityResult r = decide_solvability(t);
    ASSERT_EQ(r.verdict, Verdict::Solvable) << t.name;
    ASSERT_TRUE(r.has_chromatic_witness) << t.name;
    const auto v = protocols::verify_decision_map(t, r.witness, r.radius);
    EXPECT_TRUE(v.ok) << t.name << ": " << v.first_failure;
    EXPECT_GT(v.executions, 0u);
  }
}

TEST(Verify, CatchesABrokenMap) {
  // Corrupt a valid witness: swap one decision to a wrong-color vertex.
  const Task t = zoo::subdivision_task(1);
  const SolvabilityResult r = decide_solvability(t);
  ASSERT_TRUE(r.has_chromatic_witness);
  VertexMap broken = r.witness;
  const auto& entries = r.witness.entries();
  ASSERT_FALSE(entries.empty());
  // Map the first domain vertex to a same-color but Delta-violating vertex
  // if possible; otherwise to an arbitrary other output vertex.
  const VertexId victim = entries.begin()->first;
  for (VertexId w : t.output.vertex_ids()) {
    if (w != entries.begin()->second) {
      broken.set(victim, w);
      break;
    }
  }
  const auto v = protocols::verify_decision_map(t, broken, r.radius);
  EXPECT_FALSE(v.ok);
  EXPECT_FALSE(v.first_failure.empty());
}

}  // namespace
}  // namespace trichroma
