// Four-process support (the paper's §7 future-work direction): the generic
// engines — subdivision, LAP detection, connectivity CSP, decision-map
// search with n-ary constraints — work for any n; the splitting
// characterization stays three-process-only.

#include <gtest/gtest.h>

#include "core/lap.h"
#include "solver/pipeline.h"
#include "tasks/zoo.h"
#include "topology/chromatic.h"
#include "topology/subdivision.h"

namespace trichroma {
namespace {

Task identity_4() {
  zoo::ValueTaskSpec spec;
  spec.name = "identity-4";
  spec.num_processes = 4;
  for (int i = 0; i < 4; ++i) {
    spec.input_domain.push_back({i});
    spec.output_domain.push_back({i});
  }
  spec.allowed = [](const std::vector<Color>&, const std::vector<std::int64_t>& in,
                    const std::vector<std::int64_t>& out) { return in == out; };
  return zoo::make_value_task(spec);
}

TEST(FourProcess, SubdivisionOfTetrahedron) {
  VertexPool pool;
  SimplicialComplex base;
  base.add(Simplex{pool.vertex(0, 0), pool.vertex(1, 1), pool.vertex(2, 2),
                   pool.vertex(3, 3)});
  const SubdividedComplex sub = chromatic_subdivision(pool, base, 1);
  // Fubini number a(4) = 75 one-round immediate-snapshot executions.
  EXPECT_EQ(sub.complex.count(3), 75u);
  EXPECT_EQ(sub.complex.euler_characteristic(), 1);  // still a 3-ball
  EXPECT_TRUE(is_chromatic_complex(pool, sub.complex));
  EXPECT_TRUE(sub.complex.is_pure());
  // 4 views per process in dimension-3 corners... every vertex's carrier is
  // a face of the base simplex.
  const Simplex sigma = base.facets().front();
  for (VertexId v : sub.complex.vertex_ids()) {
    EXPECT_TRUE(sigma.contains_all(sub.carrier.at(v)));
  }
}

TEST(FourProcess, TasksValidate) {
  EXPECT_TRUE(zoo::consensus(4).validate().empty());
  EXPECT_TRUE(zoo::set_agreement(4, 3).validate().empty());
  EXPECT_TRUE(identity_4().validate().empty());
}

TEST(FourProcess, IdentitySolvableAtRadiusZero) {
  const PipelineResult r = run_pipeline(identity_4());
  EXPECT_EQ(r.report.verdict, Verdict::Solvable);
  EXPECT_EQ(r.report.radius, 0);
}

TEST(FourProcess, ConsensusUnsolvableViaConnectivity) {
  SolvabilityOptions options;
  options.max_radius = 0;  // the CSP decides; no search needed
  const PipelineResult r = run_pipeline(zoo::consensus(4), options);
  EXPECT_EQ(r.report.verdict, Verdict::Unsolvable);
}

TEST(FourProcess, SetAgreementHonestlyUnknown) {
  // (4,3)-set agreement is unsolvable, but the obstruction is the
  // 3-dimensional Sperner argument, outside the generic engines' reach;
  // the ladder must return Unknown rather than a wrong verdict.
  SolvabilityOptions options;
  options.max_radius = 0;  // r=1 takes ~minutes to exhaust; r=0 suffices here
  const PipelineResult r = run_pipeline(zoo::set_agreement(4, 3), options);
  EXPECT_EQ(r.report.verdict, Verdict::Unknown);
}

TEST(FourProcess, SetAgreementWithSlackSolvable) {
  // (4,4)-set agreement is trivial: everyone decides its own input.
  const PipelineResult r = run_pipeline(zoo::set_agreement(4, 4));
  EXPECT_EQ(r.report.verdict, Verdict::Solvable);
  EXPECT_EQ(r.report.radius, 0);
}

TEST(FourProcess, QuaternaryConstraintsAreEnforced) {
  // A task whose facet images disallow a combination that every proper
  // face allows: without 4-ary constraints the solver would wrongly accept
  // the all-zeros map at radius 0.
  zoo::ValueTaskSpec spec;
  spec.name = "parity-4";
  spec.num_processes = 4;
  spec.input_domain.assign(4, {0});
  spec.output_domain.assign(4, {0, 1});
  spec.allowed = [](const std::vector<Color>& ids, const std::vector<std::int64_t>&,
                    const std::vector<std::int64_t>& out) {
    if (ids.size() < 4) return true;  // faces: anything goes
    long long sum = 0;
    for (std::int64_t v : out) sum += v;
    return sum % 2 == 1;  // full participation: odd parity required
  };
  const Task t = zoo::make_value_task(spec);
  ASSERT_TRUE(t.validate().empty());
  const SubdividedComplex domain = chromatic_subdivision(*t.pool, t.input, 0);
  MapSearchOptions options;
  const MapSearchResult res = find_decision_map(*t.pool, domain, t, options);
  ASSERT_TRUE(res.found);
  // The map's image on the full facet must satisfy the parity rule.
  EXPECT_TRUE(validate_decision_map(*t.pool, domain, t, res.map, true));
}

TEST(FourProcess, LapDetectionWorksInDimensionThree) {
  // LAP detection (link connectivity) is dimension-generic; the full
  // (4,3)-set agreement image is link-connected.
  const Task t = zoo::set_agreement(4, 3);
  EXPECT_TRUE(find_all_laps(t).empty());
}

}  // namespace
}  // namespace trichroma
