// The pipeline's contracts: the verdict, reason, radius and
// via_characterization of every catalog task (pinned against the
// sequential ladder's golden table), the canonical engine order, the
// perf-only fields being inert, and the engines' upfront cancellation
// check.

#include <gtest/gtest.h>

#include "io/report.h"
#include "solver/pipeline.h"
#include "tasks/zoo.h"

namespace trichroma {
namespace {

// ---------------------------------------------------------------------------
// Scheduler determinism
// ---------------------------------------------------------------------------

struct GoldenRow {
  const char* name;
  Verdict verdict;
  int radius;
  bool via_characterization;
  const char* reason;
};

constexpr const char* kCspReason =
    "post-split connectivity obstruction on T' (Theorem 5.1 + Corollary 5.5 "
    "shape): no corner assignment is component-consistent on every input edge";
constexpr const char* kHomologyPrefix =
    "post-split homological obstruction on T' (no continuous map |I| -> |O'| "
    "carried by Δ'): boundary loop of facet ";

// The sequential ladder's verdicts on the whole catalog, captured before the
// refactor (solvable reasons no longer carry the racy "(N search nodes)"
// suffix — node counts live in the per-engine report now).
const std::vector<GoldenRow>& golden_table() {
  static const std::vector<GoldenRow> rows = {
      {"identity", Verdict::Solvable, 0, false,
       "chromatic decision map found on Ch^0(I)"},
      {"renaming5", Verdict::Solvable, 0, false,
       "chromatic decision map found on Ch^0(I)"},
      {"subdivision0", Verdict::Solvable, 0, false,
       "chromatic decision map found on Ch^0(I)"},
      {"subdivision1", Verdict::Solvable, 1, false,
       "chromatic decision map found on Ch^1(I)"},
      {"approx_agreement", Verdict::Solvable, 1, false,
       "chromatic decision map found on Ch^1(I)"},
      {"fan6", Verdict::Solvable, 0, false,
       "chromatic decision map found on Ch^0(I)"},
      {"fig3", Verdict::Solvable, 0, false,
       "chromatic decision map found on Ch^0(I)"},
      {"loop_filled", Verdict::Solvable, 1, false,
       "chromatic decision map found on Ch^1(I)"},
      {"consensus3", Verdict::Unsolvable, -1, true, kCspReason},
      {"set_agreement_32", Verdict::Unsolvable, -1, true,
       "post-split homological obstruction on T' (no continuous map |I| -> "
       "|O'| carried by Δ'): boundary loop of facet [P0:(in, 1) P1:(in, 2) "
       "P2:(in, 3)] never bounds over GF(2)"},
      {"majority_consensus", Verdict::Unsolvable, -1, true, kCspReason},
      {"hourglass", Verdict::Unsolvable, -1, true, kCspReason},
      {"pinwheel", Verdict::Unsolvable, -1, true, kCspReason},
      {"loop_hollow", Verdict::Unsolvable, -1, true,
       "post-split homological obstruction on T' (no continuous map |I| -> "
       "|O'| carried by Δ'): boundary loop of facet [P0:(idx, 0) P1:(idx, 1) "
       "P2:(idx, 2)] never bounds over GF(2)"},
      {"loop_torus", Verdict::Unsolvable, -1, true,
       "post-split homological obstruction on T' (no continuous map |I| -> "
       "|O'| carried by Δ'): boundary loop of facet [P0:(idx, 0) P1:(idx, 1) "
       "P2:(idx, 2)] never bounds over GF(2)"},
      {"loop_rp2", Verdict::Unsolvable, -1, true,
       "post-split homological obstruction on T' (no continuous map |I| -> "
       "|O'| carried by Δ'): boundary loop of facet [P0:(idx, 0) P1:(idx, 1) "
       "P2:(idx, 2)] never bounds over GF(2)"},
      {"twisted_hourglass", Verdict::Unsolvable, -1, true, kCspReason},
      {"test_and_set3", Verdict::Unsolvable, -1, true, kCspReason},
      {"wsb3", Verdict::Solvable, 0, false,
       "chromatic decision map found on Ch^0(I)"},
      {"consensus_2", Verdict::Unsolvable, -1, false,
       "Proposition 5.4: no continuous map |I| -> |O| carried by Δ (no corner "
       "assignment is component-consistent on every input edge)"},
      {"approx_agreement_2", Verdict::Solvable, -1, false,
       "Proposition 5.4: a corner assignment with connected edge images "
       "exists, giving a continuous map |I| -> |O| carried by Δ"},
  };
  return rows;
}

const zoo::CatalogEntry& catalog_entry(const char* name) {
  for (const zoo::CatalogEntry& e : zoo::catalog()) {
    if (std::string(e.name) == name) return e;
  }
  ADD_FAILURE() << "catalog is missing " << name;
  static const zoo::CatalogEntry fallback{"identity", zoo::identity_task};
  return fallback;
}

class SchedulerDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerDeterminism, VerdictAndReasonMatchGoldenTable) {
  const int threads = GetParam();
  ASSERT_EQ(golden_table().size(), zoo::catalog().size())
      << "catalog changed: regenerate the golden table";
  for (const GoldenRow& row : golden_table()) {
    const Task task = catalog_entry(row.name).build();
    SolvabilityOptions options;
    options.threads = threads;
    const PipelineResult r = run_pipeline(task, options);
    EXPECT_EQ(r.report.verdict, row.verdict) << row.name << " @ " << threads;
    EXPECT_EQ(r.report.reason, row.reason) << row.name << " @ " << threads;
    EXPECT_EQ(r.report.radius, row.radius) << row.name << " @ " << threads;
    EXPECT_EQ(r.report.via_characterization, row.via_characterization)
        << row.name << " @ " << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SchedulerDeterminism, ::testing::Values(1));

TEST(Pipeline, ReportListsEveryEngineInCanonicalOrder) {
  const PipelineResult r = run_pipeline(zoo::hourglass());
  const std::vector<const char*> expected = {
      "characterize",     "corollary-5.5",    "corollary-5.6",
      "post-split-connectivity-csp", "post-split-homology",
      "chromatic-probe",  "tp-agnostic-probe"};
  ASSERT_EQ(r.report.engines.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(r.report.engines[i].name, expected[i]);
  }
  // Sequential ladder on an obstructed task: the CSP concludes, the probes
  // never start.
  EXPECT_EQ(r.report.engines[3].status, EngineStatus::Conclusive);
  EXPECT_EQ(r.report.engines[5].status, EngineStatus::Skipped);
  EXPECT_EQ(r.report.engines[6].status, EngineStatus::Skipped);
}

TEST(Pipeline, DefaultOptionsRenderTheSequentialLadderReport) {
  // The report must not depend on the host. `threads` is kept only for the
  // benchmark and is ignored: 0 (the host's core count) and 4 render the
  // same sequential-ladder report as the default, byte for byte.
  io::ReportJsonOptions json;
  json.redact_timings = true;
  for (const zoo::CatalogEntry& entry : zoo::catalog()) {
    const std::string expected =
        io::to_json(run_pipeline(entry.build()).report, json);
    for (const int threads : {1, 0, 4}) {
      SolvabilityOptions options;
      options.threads = threads;
      const std::string actual =
          io::to_json(run_pipeline(entry.build(), options).report, json);
      EXPECT_EQ(actual, expected) << entry.name << " threads=" << threads;
    }
  }
}

TEST(Pipeline, DomainOverflowSurfacesInTheUnknownReason) {
  // Domains wider than 64 values are a representation limit of the
  // word-parallel search, not evidence either way; the Unknown reason must
  // name the limit and the rung it hit, not masquerade as "no map found".
  const Task t = zoo::renaming(65);
  SolvabilityOptions options;
  options.max_radius = 0;
  options.use_characterization = false;
  const PipelineResult r = run_pipeline(t, options);
  EXPECT_EQ(r.report.verdict, Verdict::Unknown);
  EXPECT_NE(r.report.reason.find("domain wider than 64 values"),
            std::string::npos)
      << r.report.reason;
  EXPECT_NE(r.report.reason.find("chromatic probe at radius 0"),
            std::string::npos)
      << r.report.reason;
  for (const EngineReport& e : r.report.engines) {
    if (e.name != "chromatic-probe") continue;
    ASSERT_EQ(e.overflowed.size(), 1u);
    EXPECT_EQ(e.overflowed[0], "chromatic probe at radius 0");
    EXPECT_TRUE(e.capped.empty());
  }
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

TEST(Cancellation, PreTrippedTokenShortCircuitsAnEngine) {
  const Task task = zoo::set_agreement_32();
  ProbeEngine probe(task, ProbeKind::DirectChromatic);
  CancellationToken token;
  token.request_stop();
  const EngineReport r = probe.run(EngineBudget{}, token);
  EXPECT_EQ(r.status, EngineStatus::Cancelled);
  EXPECT_EQ(r.nodes_explored, 0u);
}

}  // namespace
}  // namespace trichroma
