// Warm-start coverage: artifact-seeded pipelines must be observationally
// identical to cold ones. The equivalence is pinned three ways — over the
// whole catalog, over random tasks at every radius of a deepening sweep,
// and across chromatic relabelings (resume from an isomorphic twin's
// artifacts) — plus the degradation contract: a corrupted or truncated
// artifact falls back to a cold rebuild, never a wrong verdict. The
// concurrent-store test is the satellite for cross-process sharing: racing
// rename-atomic writers over one --cache-dir must leave a valid store and
// correct verdicts (it runs under TSan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "io/report.h"
#include "io/store.h"
#include "solver/batch.h"
#include "solver/pipeline.h"
#include "tasks/fingerprint.h"
#include "tasks/zoo.h"

namespace trichroma {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  const std::string dir = testing::TempDir() + "trichroma-warm-" + tag + "-" +
                          std::to_string(++counter);
  fs::remove_all(dir);
  return dir;
}

// Same helper as tasks_fingerprint_test: a chromatically isomorphic copy in
// a fresh pool with scrambled values and insertion orders.
Task relabel(const Task& task, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Task out;
  out.pool = std::make_shared<VertexPool>();
  out.name = task.name + "-relabeled";
  out.num_processes = task.num_processes;
  std::vector<VertexId> verts = task.input.vertex_ids();
  for (VertexId v : task.output.vertex_ids()) verts.push_back(v);
  std::sort(verts.begin(), verts.end(),
            [](VertexId a, VertexId b) { return raw(a) < raw(b); });
  verts.erase(std::unique(verts.begin(), verts.end()), verts.end());
  std::shuffle(verts.begin(), verts.end(), rng);
  std::map<VertexId, VertexId> m;
  std::int64_t next = 1000 + static_cast<std::int64_t>(rng() % 100000);
  for (VertexId v : verts) {
    m[v] = out.pool->vertex(task.pool->color(v), next++);
  }
  const auto ms = [&m](const Simplex& s) {
    std::vector<VertexId> vs;
    for (VertexId v : s) vs.push_back(m.at(v));
    return Simplex(std::move(vs));
  };
  std::vector<Simplex> ifacets = task.input.facets();
  std::vector<Simplex> ofacets = task.output.facets();
  std::shuffle(ifacets.begin(), ifacets.end(), rng);
  std::shuffle(ofacets.begin(), ofacets.end(), rng);
  for (const Simplex& f : ifacets) out.input.add(ms(f));
  for (const Simplex& f : ofacets) out.output.add(ms(f));
  std::vector<Simplex> domain = task.delta.domain();
  std::shuffle(domain.begin(), domain.end(), rng);
  for (const Simplex& sigma : domain) {
    std::vector<Simplex> images;
    for (const Simplex& tau : task.delta.facet_images(sigma)) {
      images.push_back(ms(tau));
    }
    std::shuffle(images.begin(), images.end(), rng);
    for (const Simplex& tau : images) out.delta.add(ms(sigma), tau);
  }
  return out;
}

// The report schema's declared filter for warm-vs-cold comparisons: drop
// every line carrying the token `"cache":` (io/report.h).
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

SolvabilityOptions ladder_options(const std::string& cache_dir,
                                  int max_radius) {
  SolvabilityOptions options;
  options.cache_dir = cache_dir;
  options.max_radius = max_radius;
  return options;
}

// The tentpole contract over every catalog task: prime a store at radius 1,
// deepen to radius 2 against it, and demand the warm-started report be
// byte-identical (modulo the declared cache lines) to a cold radius-2 run.
TEST(WarmStart, SeededDeepenMatchesColdOverCatalog) {
  for (const zoo::CatalogEntry& entry : zoo::catalog()) {
    const std::string dir = fresh_dir(entry.name);
    const PipelineReport cold =
        run_pipeline(entry.build(), ladder_options("", 2)).report;
    run_pipeline(entry.build(), ladder_options(dir, 1));
    const PipelineReport seeded =
        run_pipeline(entry.build(), ladder_options(dir, 2)).report;
    EXPECT_TRUE(seeded.cache == "artifacts" || seeded.cache == "miss")
        << entry.name << ": " << seeded.cache;
    EXPECT_EQ(seeded.verdict, cold.verdict) << entry.name;
    EXPECT_EQ(seeded.reason, cold.reason) << entry.name;
    EXPECT_EQ(seeded.radius, cold.radius) << entry.name;
    EXPECT_EQ(strip_cache_lines(redacted(seeded)),
              strip_cache_lines(redacted(cold)))
        << entry.name;
  }
}

// The same contract over random tasks and the whole deepening sweep
// 0 -> 1 -> 2: every rung of the sweep warm-starts from the previous one's
// store state (records, a ratcheting ladder, Δ images) and must stay
// byte-identical to its cold counterpart.
class WarmStartSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WarmStartSeeds, SeededSweepMatchesColdAtEveryRadius) {
  zoo::RandomTaskParams params;
  params.seed = GetParam();
  params.num_input_facets = 1 + static_cast<int>(GetParam() % 4);
  const Task reference = zoo::random_task(params);
  ASSERT_TRUE(reference.validate().empty());

  const std::string dir = fresh_dir("sweep");
  for (int radius = 0; radius <= 2; ++radius) {
    const PipelineReport cold =
        run_pipeline(zoo::random_task(params), ladder_options("", radius))
            .report;
    const PipelineReport seeded =
        run_pipeline(zoo::random_task(params), ladder_options(dir, radius))
            .report;
    EXPECT_EQ(seeded.verdict, cold.verdict) << "radius " << radius;
    EXPECT_EQ(seeded.reason, cold.reason) << "radius " << radius;
    EXPECT_EQ(seeded.radius, cold.radius) << "radius " << radius;
    EXPECT_EQ(strip_cache_lines(redacted(seeded)),
              strip_cache_lines(redacted(cold)))
        << "radius " << radius;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmStartSeeds,
                         ::testing::Range<std::uint64_t>(0, 8));

// Artifacts are stored under the canonical labeling, so a chromatically
// relabeled twin resumes from them. node_cap differs between the priming
// and the live run, which disables sibling-record replay (budgets must
// match exactly outside max_radius) — the "artifacts" outcome can only come
// from tier-B seeding, materialized under the twin's own display identity.
TEST(WarmStart, ResumesFromIsomorphicTwinArtifacts) {
  const Task original = zoo::approximate_agreement(2);
  const std::string dir = fresh_dir("twin");
  run_pipeline(original, ladder_options(dir, 1));

  const Task twin = relabel(original, 7);
  SolvabilityOptions live = ladder_options(dir, 2);
  live.node_cap = 19'000'000;  // not the priming run's cap: no record replay
  const PipelineReport cold =
      run_pipeline(relabel(original, 7), [&] {
        SolvabilityOptions o = live;
        o.cache_dir.clear();
        return o;
      }()).report;
  const PipelineReport seeded = run_pipeline(twin, live).report;
  EXPECT_EQ(seeded.cache, "artifacts");
  EXPECT_GE(seeded.cache_seeded_levels, 2);
  EXPECT_EQ(seeded.task_name, twin.name);
  EXPECT_EQ(seeded.verdict, cold.verdict);
  EXPECT_EQ(seeded.reason, cold.reason);
  EXPECT_EQ(seeded.radius, cold.radius);
  EXPECT_EQ(strip_cache_lines(redacted(seeded)),
            strip_cache_lines(redacted(cold)));
}

// Degradation contract: a checksum-valid artifact whose body is garbage (a
// crashed writer cannot produce one, but a version skew or a bit flip past
// the wrapper can) must not seed anything — the run rebuilds cold and the
// verdict is untouched. Both artifacts are replaced so neither tier-B
// input survives.
TEST(WarmStart, CorruptArtifactBodyFallsBackToColdRebuild) {
  const Task task = zoo::approximate_agreement(2);
  const std::string dir = fresh_dir("corrupt");
  run_pipeline(task, ladder_options(dir, 1));

  const io::VerdictStore store(dir);
  const TaskFingerprint fp = fingerprint_of(task);
  store.store_artifact(fp, "ladder.levels", "ladder-levels/2\nlevels=9\njunk");
  store.store_artifact(fp, "delta.images", "not a delta image table");

  SolvabilityOptions live = ladder_options(dir, 2);
  live.node_cap = 19'000'000;  // dodge record replay: force the artifact path
  const PipelineReport cold = run_pipeline(task, [&] {
    SolvabilityOptions o = live;
    o.cache_dir.clear();
    return o;
  }()).report;
  const PipelineReport seeded = run_pipeline(task, live).report;
  EXPECT_EQ(seeded.cache, "miss");
  EXPECT_EQ(seeded.cache_seeded_levels, 0);
  EXPECT_EQ(seeded.verdict, cold.verdict);
  EXPECT_EQ(strip_cache_lines(redacted(seeded)),
            strip_cache_lines(redacted(cold)));
}

// Raw on-disk truncation (a torn copy, a filled disk): the container
// checksum fails, every load is a miss, the run is cold and correct.
TEST(WarmStart, TruncatedArtifactFilesFallBackToColdRebuild) {
  const Task task = zoo::approximate_agreement(2);
  const std::string dir = fresh_dir("truncate");
  run_pipeline(task, ladder_options(dir, 1));

  std::size_t mangled = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".art") continue;
    const auto size = fs::file_size(entry.path());
    fs::resize_file(entry.path(), size / 2);
    ++mangled;
  }
  ASSERT_GE(mangled, 2u);  // ladder.levels + delta.images

  SolvabilityOptions live = ladder_options(dir, 2);
  live.node_cap = 19'000'000;
  const PipelineReport cold = run_pipeline(task, [&] {
    SolvabilityOptions o = live;
    o.cache_dir.clear();
    return o;
  }()).report;
  const PipelineReport seeded = run_pipeline(task, live).report;
  EXPECT_EQ(seeded.cache, "miss");
  EXPECT_EQ(seeded.cache_seeded_levels, 0);
  EXPECT_EQ(seeded.verdict, cold.verdict);
  EXPECT_EQ(strip_cache_lines(redacted(seeded)),
            strip_cache_lines(redacted(cold)));
}

// The cross-process sharing satellite, in-process so TSan can see it: many
// pipelines with *separate store handles* race decide-style runs over one
// cache directory — including isomorphic twins racing to publish the same
// entry, and a deepening run racing the shallow publisher it wants to
// resume from. Rename-atomic writes must leave every record and artifact
// loadable and every verdict equal to its cold reference.
TEST(WarmStart, ConcurrentPipelinesShareOneStoreSafely) {
  const std::string dir = fresh_dir("race");
  struct Job {
    Task (*build)();
    std::uint64_t relabel_seed;  // 0 = use the task as built
    int max_radius;
  };
  const std::vector<Job> jobs = {
      {+[] { return zoo::hourglass(); }, 0, 2},
      {+[] { return zoo::hourglass(); }, 11, 2},  // isomorphic twin
      {+[] { return zoo::approximate_agreement(2); }, 0, 1},
      {+[] { return zoo::approximate_agreement(2); }, 0, 2},  // deepens
      {+[] { return zoo::identity_task(); }, 0, 2},
      {+[] { return zoo::subdivision_task(0); }, 0, 2},  // identity's twin
      {+[] { return zoo::fig3_running_example(); }, 0, 2},
      {+[] { return zoo::consensus_2(); }, 0, 2},
  };

  std::vector<Verdict> expected(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Task task = jobs[i].relabel_seed == 0
                          ? jobs[i].build()
                          : relabel(jobs[i].build(), jobs[i].relabel_seed);
    expected[i] =
        run_pipeline(task, ladder_options("", jobs[i].max_radius)).report.verdict;
  }

  // Two full passes per job so later threads hit entries earlier ones
  // published mid-flight.
  std::vector<PipelineReport> got(jobs.size());
  std::vector<std::thread> threads;
  threads.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    threads.emplace_back([&, i] {
      const Task task = jobs[i].relabel_seed == 0
                            ? jobs[i].build()
                            : relabel(jobs[i].build(), jobs[i].relabel_seed);
      const SolvabilityOptions options = ladder_options(dir, jobs[i].max_radius);
      run_pipeline(task, options);
      got[i] = run_pipeline(task, options).report;
    });
  }
  for (std::thread& t : threads) t.join();

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(got[i].verdict, expected[i]) << "job " << i;
  }

  // The store survived the race: every published record parses (the sibling
  // scan reads all of them), every task now replays as an exact hit, and
  // the stats walk sees only well-formed entries.
  const io::VerdictStore store(dir);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Task task = jobs[i].relabel_seed == 0
                          ? jobs[i].build()
                          : relabel(jobs[i].build(), jobs[i].relabel_seed);
    for (const io::SiblingVerdict& sibling :
         store.scan_siblings(fingerprint_of(task))) {
      EXPECT_FALSE(sibling.opt_digest.empty());
    }
    const PipelineReport warm =
        run_pipeline(task, ladder_options(dir, jobs[i].max_radius)).report;
    EXPECT_EQ(warm.cache, "hit") << "job " << i;
    EXPECT_EQ(warm.verdict, expected[i]) << "job " << i;
  }
  const io::VerdictStore::Stats stats = store.stats();
  EXPECT_GT(stats.entries, 0u);
  EXPECT_GT(stats.verdict_records, 0u);
  EXPECT_EQ(stats.other_files, 0u);
}

// Batch-level deepening: a radius-2 batch over a store primed at radius 1
// answers every conclusive task from sibling records or artifacts, and its
// reports match a cold radius-2 batch byte-for-byte modulo cache lines.
TEST(WarmStart, BatchDeepenWarmStartsFromShallowStore) {
  BatchOptions shallow;
  shallow.only = {"hourglass", "approx_agreement", "fig3"};
  shallow.solve.cache_dir = fresh_dir("batch-deepen");
  shallow.solve.max_radius = 1;
  run_batch(shallow);

  BatchOptions deep = shallow;
  deep.solve.max_radius = 2;
  const BatchResult warm = run_batch(deep);

  BatchOptions cold_options = deep;
  cold_options.solve.cache_dir.clear();
  const BatchResult cold = run_batch(cold_options);

  ASSERT_EQ(warm.tasks.size(), 3u);
  EXPECT_EQ(warm.cache_hits, 0);
  EXPECT_EQ(warm.cache_misses, 3);
  EXPECT_EQ(warm.cache_artifacts, 3);
  for (std::size_t i = 0; i < warm.tasks.size(); ++i) {
    EXPECT_EQ(warm.tasks[i].report.cache, "artifacts") << warm.tasks[i].name;
    EXPECT_EQ(strip_cache_lines(redacted(warm.tasks[i].report)),
              strip_cache_lines(redacted(cold.tasks[i].report)))
        << warm.tasks[i].name;
  }
}

}  // namespace
}  // namespace trichroma
