// End-to-end verdict-store tests: the pipeline consulting/publishing the
// store (solver/pipeline.cpp), the byte-identity contract between cold and
// warm reports, and the batch driver's fingerprint dedup pre-pass.

#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "io/report.h"
#include "solver/batch.h"
#include "solver/pipeline.h"
#include "tasks/zoo.h"

namespace trichroma {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  // The pid keeps concurrent test processes (ctest -j) out of each
  // other's directories; the counter separates calls within one process.
  const std::string dir = testing::TempDir() + "trichroma-cache-" + tag +
                          "-" + std::to_string(::getpid()) + "-" +
                          std::to_string(++counter);
  fs::remove_all(dir);
  return dir;
}

// Drops every line carrying the token `"cache":` — exactly the filter the
// report schema documents for warm-vs-cold comparisons (io/report.h).
std::string strip_cache_lines(const std::string& json) {
  std::string out;
  std::size_t start = 0;
  while (start < json.size()) {
    std::size_t end = json.find('\n', start);
    if (end == std::string::npos) end = json.size();
    const std::string line = json.substr(start, end - start);
    if (line.find("\"cache\":") == std::string::npos) {
      out += line;
      out += '\n';
    }
    start = end + 1;
  }
  return out;
}

std::string redacted(const PipelineReport& report) {
  io::ReportJsonOptions json;
  json.redact_timings = true;
  return io::to_json(report, json);
}

TEST(PipelineCache, OffByDefault) {
  const PipelineReport r =
      run_pipeline(zoo::consensus_2(), SolvabilityOptions{}).report;
  EXPECT_EQ(r.cache, "off");
  EXPECT_EQ(r.cache_hits, 0u);
  EXPECT_EQ(r.cache_misses, 0u);
}

TEST(PipelineCache, MissThenHitIsByteIdenticalModuloCacheLines) {
  SolvabilityOptions options;
  options.cache_dir = fresh_dir("hourglass");
  const Task task = zoo::hourglass();

  const PipelineReport cold = run_pipeline(task, options).report;
  EXPECT_EQ(cold.cache, "miss");
  EXPECT_EQ(cold.cache_misses, 1u);
  EXPECT_GT(cold.cache_store_bytes, 0u);  // conclusive ⇒ published

  const PipelineReport warm = run_pipeline(task, options).report;
  EXPECT_EQ(warm.cache, "hit");
  EXPECT_EQ(warm.cache_hits, 1u);
  EXPECT_EQ(warm.verdict, cold.verdict);
  EXPECT_EQ(strip_cache_lines(redacted(warm)),
            strip_cache_lines(redacted(cold)));
}

TEST(PipelineCache, TwoProcessRouteUsesTheStoreToo) {
  SolvabilityOptions options;
  options.cache_dir = fresh_dir("twoproc");
  const Task task = zoo::consensus_2();
  const PipelineReport cold = run_pipeline(task, options).report;
  EXPECT_EQ(cold.cache, "miss");
  const PipelineReport warm = run_pipeline(task, options).report;
  EXPECT_EQ(warm.cache, "hit");
  EXPECT_EQ(strip_cache_lines(redacted(warm)),
            strip_cache_lines(redacted(cold)));
}

// A hit by a chromatically isomorphic twin keeps the twin's own display
// identity: the store replays identity's verdict for subdivision0, but the
// report must still say "subdivision-0".
TEST(PipelineCache, IsomorphicTwinHitKeepsLiveIdentity) {
  SolvabilityOptions options;
  options.cache_dir = fresh_dir("twins");
  const Task identity = zoo::identity_task();
  const Task twin = zoo::subdivision_task(0);

  const PipelineReport cold = run_pipeline(identity, options).report;
  EXPECT_EQ(cold.cache, "miss");
  const PipelineReport warm = run_pipeline(twin, options).report;
  EXPECT_EQ(warm.cache, "hit");
  EXPECT_EQ(warm.task_name, twin.name);
  EXPECT_NE(warm.task_name, identity.name);
  EXPECT_EQ(warm.verdict, cold.verdict);
  EXPECT_EQ(warm.radius, cold.radius);
}

// Different budgets must never alias: a record stored under one budget is
// never an exact hit under another. A deeper max_radius over the same store
// does warm-start, though — hourglass is Unsolvable, so the sibling record
// is replay-safe and the run reports "artifacts", not "hit".
TEST(PipelineCache, BudgetIsPartOfTheKey) {
  SolvabilityOptions options;
  options.cache_dir = fresh_dir("budget");
  const Task task = zoo::hourglass();
  EXPECT_EQ(run_pipeline(task, options).report.cache, "miss");
  EXPECT_EQ(run_pipeline(task, options).report.cache, "hit");
  SolvabilityOptions deeper = options;
  deeper.max_radius = options.max_radius + 1;
  const PipelineReport warm = run_pipeline(task, deeper).report;
  EXPECT_EQ(warm.cache, "artifacts");
  EXPECT_EQ(warm.cache_hits, 0);
  EXPECT_EQ(warm.cache_misses, 1);
  // A sibling replay re-publishes under the live digest: the same deeper
  // budget is an exact hit the second time around.
  EXPECT_EQ(run_pipeline(task, deeper).report.cache, "hit");
}

// Unknown verdicts are not conclusive and must not be published: the second
// run is a miss again (and gets another chance at a bigger budget later).
TEST(PipelineCache, UnknownVerdictsAreNotPublished) {
  SolvabilityOptions options;
  options.cache_dir = fresh_dir("unknown");
  options.use_characterization = false;
  options.max_radius = 0;  // approx agreement needs r >= 1: Unknown
  const Task task = zoo::approximate_agreement(2);
  const PipelineReport first = run_pipeline(task, options).report;
  ASSERT_EQ(first.verdict, Verdict::Unknown);
  EXPECT_EQ(first.cache, "miss");
  const PipelineReport second = run_pipeline(task, options).report;
  EXPECT_EQ(second.cache, "miss");
}

TEST(BatchCache, WarmRunAnswersEverySelectedTaskFromTheStore) {
  BatchOptions batch;
  batch.solve.cache_dir = fresh_dir("batch");
  batch.jobs = 2;
  batch.only = {"identity", "subdivision0", "hourglass", "consensus3"};

  const BatchResult cold = run_batch(batch);
  ASSERT_EQ(cold.tasks.size(), 4u);
  // subdivision0 is identity's isomorphic twin: the dedup pre-pass replays
  // it without running, already a hit on the cold pass — under its own
  // task name, not its twin's.
  EXPECT_EQ(cold.cache_hits, 1);
  EXPECT_EQ(cold.cache_misses, 3);
  EXPECT_EQ(cold.tasks[1].name, "subdivision0");
  EXPECT_EQ(cold.tasks[1].report.cache, "hit");
  EXPECT_EQ(cold.tasks[1].report.task_name, zoo::subdivision_task(0).name);
  EXPECT_NE(cold.tasks[1].report.task_name, cold.tasks[0].report.task_name);

  const BatchResult warm = run_batch(batch);
  EXPECT_EQ(warm.cache_hits, 4);
  EXPECT_EQ(warm.cache_misses, 0);
  for (std::size_t i = 0; i < cold.tasks.size(); ++i) {
    EXPECT_EQ(strip_cache_lines(redacted(warm.tasks[i].report)),
              strip_cache_lines(redacted(cold.tasks[i].report)))
        << cold.tasks[i].name;
  }
}

// Cold cached runs stay deterministic at every jobs value — including the
// cache fields themselves, because the dedup pre-pass (not scheduling)
// decides which twin runs.
TEST(BatchCache, ColdRunIsJobsIndependentIncludingCacheFields) {
  BatchOptions batch;
  batch.only = {"identity", "subdivision0", "hourglass"};
  batch.solve.cache_dir = fresh_dir("jobs1");
  batch.jobs = 1;
  const BatchResult serial = run_batch(batch);
  batch.solve.cache_dir = fresh_dir("jobs4");
  batch.jobs = 4;
  const BatchResult wide = run_batch(batch);
  ASSERT_EQ(serial.tasks.size(), wide.tasks.size());
  for (std::size_t i = 0; i < serial.tasks.size(); ++i) {
    EXPECT_EQ(redacted(serial.tasks[i].report),
              redacted(wide.tasks[i].report))
        << serial.tasks[i].name;
  }
}

TEST(BatchCache, CacheOffBatchHasNoCacheCounts) {
  BatchOptions batch;
  batch.only = {"consensus_2"};
  const BatchResult result = run_batch(batch);
  ASSERT_EQ(result.tasks.size(), 1u);
  EXPECT_EQ(result.cache_hits, 0);
  EXPECT_EQ(result.cache_misses, 0);
  EXPECT_EQ(result.tasks[0].report.cache, "off");
}

}  // namespace
}  // namespace trichroma
