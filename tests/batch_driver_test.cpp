// The parallel batch driver (solver/batch.h): the report set for the whole
// 21-task zoo catalog must be byte-identical — after timing redaction — for
// every --jobs value, and must come back in catalog order. This is the
// contract that makes `trichroma batch --report-dir` artifacts diffable
// across machines and worker counts.

#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/report.h"
#include "solver/batch.h"
#include "tasks/zoo.h"

namespace trichroma {
namespace {

std::vector<std::string> rendered_reports(const BatchResult& result) {
  io::ReportJsonOptions json;
  json.redact_timings = true;
  std::vector<std::string> out;
  out.reserve(result.tasks.size());
  for (const BatchTaskResult& t : result.tasks) {
    out.push_back(io::to_json(t.report, json));
  }
  return out;
}

TEST(BatchDriver, FullCatalogReportsByteIdenticalAcrossJobCounts) {
  BatchOptions base;
  base.jobs = 1;
  const BatchResult reference = run_batch(base);
  ASSERT_EQ(reference.tasks.size(), zoo::catalog().size());
  const std::vector<std::string> expected = rendered_reports(reference);

  for (int jobs : {2, 8}) {
    BatchOptions options;
    options.jobs = jobs;
    const BatchResult result = run_batch(options);
    ASSERT_EQ(result.tasks.size(), reference.tasks.size()) << jobs << " jobs";
    const std::vector<std::string> actual = rendered_reports(result);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.tasks[i].name, reference.tasks[i].name);
      EXPECT_EQ(actual[i], expected[i])
          << result.tasks[i].name << " differs at --jobs " << jobs;
    }
  }
}

TEST(BatchDriver, ResultsComeBackInCatalogOrder) {
  const std::vector<zoo::CatalogEntry>& catalog = zoo::catalog();
  BatchOptions options;
  options.jobs = 4;
  const BatchResult result = run_batch(options);
  ASSERT_EQ(result.tasks.size(), catalog.size());
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(result.tasks[i].name, catalog[i].name);
  }
}

TEST(BatchDriver, SubsetFollowsCatalogOrderNotRequestOrder) {
  BatchOptions options;
  options.only = {"hourglass", "identity"};  // reversed relative to catalog
  const BatchResult result = run_batch(options);
  ASSERT_EQ(result.tasks.size(), 2u);
  EXPECT_EQ(result.tasks[0].name, "identity");
  EXPECT_EQ(result.tasks[1].name, "hourglass");
}

TEST(BatchDriver, UnknownTaskNameThrows) {
  BatchOptions options;
  options.only = {"no_such_task"};
  EXPECT_THROW(run_batch(options), std::invalid_argument);
}

TEST(BatchDriver, CountsUnknownVerdicts) {
  // A starved budget turns the searches inconclusive; the driver must
  // surface that in `unknown` (the CLI exit code depends on it).
  BatchOptions options;
  options.only = {"loop_filled"};
  options.solve.node_cap = 10;
  options.solve.use_characterization = false;
  const BatchResult result = run_batch(options);
  ASSERT_EQ(result.tasks.size(), 1u);
  EXPECT_EQ(result.tasks[0].report.verdict, Verdict::Unknown);
  EXPECT_EQ(result.unknown, 1);
}

}  // namespace
}  // namespace trichroma
