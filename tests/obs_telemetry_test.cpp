// Telemetry v2 (src/obs): log-bucketed histograms and gauges, the
// Prometheus exposition (sanitized names, loud collision detection),
// rename-atomic snapshot publication, the batch heartbeat — including
// surviving a SIGKILL mid-run — and the trace-stats analytics over a
// checked-in mini trace plus a live capture.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <gtest/gtest.h>

#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_stats.h"
#include "solver/batch.h"
#include "solver/pipeline.h"
#include "tasks/zoo.h"

namespace trichroma {
namespace {

// Minimal recursive-descent JSON syntax checker (same approach as
// obs_trace_test.cpp) — enough to assert the writers emit well-formed
// documents without a JSON dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      pos_ += s_[pos_] == '\\' ? 2 : 1;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string fresh_dir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("trichroma-telemetry-" + tag + "-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ---------------------------------------------------------------- histogram

TEST(Histogram, BucketBoundariesAreBase2) {
  using H = obs::Histogram;
  // Bucket i holds values in (2^(i-1), 2^i]; 0 and 1 share bucket 0.
  EXPECT_EQ(H::bucket_index(0), 0u);
  EXPECT_EQ(H::bucket_index(1), 0u);
  EXPECT_EQ(H::bucket_index(2), 1u);
  EXPECT_EQ(H::bucket_index(3), 2u);
  EXPECT_EQ(H::bucket_index(4), 2u);
  EXPECT_EQ(H::bucket_index(5), 3u);
  EXPECT_EQ(H::bucket_index(8), 3u);
  EXPECT_EQ(H::bucket_index(9), 4u);
  EXPECT_EQ(H::bucket_index(std::uint64_t{1} << 31), 31u);
  // Past the largest finite bound: the +Inf bucket.
  EXPECT_EQ(H::bucket_index((std::uint64_t{1} << 31) + 1), H::kFiniteBuckets);
  EXPECT_EQ(H::bucket_index(~std::uint64_t{0}), H::kFiniteBuckets);
  EXPECT_EQ(H::bucket_upper_bound(5), 32u);
  for (const std::uint64_t v :
       std::vector<std::uint64_t>{0, 1, 2, 3, 7, 63, 64, 65, 1000, 4096}) {
    const std::size_t i = H::bucket_index(v);
    EXPECT_LE(v, H::bucket_upper_bound(i)) << v;
    if (i > 0) EXPECT_GT(v, H::bucket_upper_bound(i - 1)) << v;
  }
}

TEST(Histogram, SnapshotIndependentOfRecordOrderAndThreadCount) {
  std::vector<std::uint64_t> samples;
  std::mt19937_64 rng(42);
  for (int i = 0; i < 10000; ++i) samples.push_back(rng() % 100000);

  obs::Histogram in_order;
  for (const std::uint64_t v : samples) in_order.record(v);

  std::vector<std::uint64_t> shuffled = samples;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  obs::Histogram reordered;
  for (const std::uint64_t v : shuffled) reordered.record(v);

  obs::Histogram threaded;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&threaded, &samples, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < samples.size();
           i += 4) {
        threaded.record(samples[i]);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(in_order.count(), reordered.count());
  EXPECT_EQ(in_order.sum(), reordered.sum());
  EXPECT_EQ(in_order.count(), threaded.count());
  EXPECT_EQ(in_order.sum(), threaded.sum());
  for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    EXPECT_EQ(in_order.bucket(i), reordered.bucket(i)) << i;
    EXPECT_EQ(in_order.bucket(i), threaded.bucket(i)) << i;
  }
}

TEST(Histogram, MergeMatchesPerSampleRecord) {
  // The hot-path idiom: tally locally, flush once.
  const std::vector<std::uint64_t> samples{0, 1, 1, 2, 5, 64, 65, 1 << 20};
  std::array<std::uint64_t, obs::Histogram::kBuckets> local{};
  std::uint64_t sum = 0;
  for (const std::uint64_t v : samples) {
    ++local[obs::Histogram::bucket_index(v)];
    sum += v;
  }
  obs::Histogram merged;
  merged.merge(local, samples.size(), sum);
  obs::Histogram recorded;
  for (const std::uint64_t v : samples) recorded.record(v);
  EXPECT_EQ(merged.count(), recorded.count());
  EXPECT_EQ(merged.sum(), recorded.sum());
  for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    EXPECT_EQ(merged.bucket(i), recorded.bucket(i)) << i;
  }
}

TEST(Gauge, SetAddValueReset) {
  obs::Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.add(-10);
  EXPECT_EQ(g.value(), -3);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

// ----------------------------------------------------------------- registry

TEST(Metrics, CrossKindNameReuseThrows) {
  obs::MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), std::logic_error);
  EXPECT_THROW(registry.histogram("x"), std::logic_error);
  registry.histogram("h");
  EXPECT_THROW(registry.counter("h"), std::logic_error);
  EXPECT_THROW(registry.gauge("h"), std::logic_error);
  // Same-kind lookups stay the interned-reference fast path.
  EXPECT_EQ(&registry.counter("x"), &registry.counter("x"));
  EXPECT_EQ(&registry.histogram("h"), &registry.histogram("h"));
}

TEST(Metrics, ToJsonCarriesGaugesAndHistograms) {
  obs::MetricsRegistry registry;
  registry.counter("a.count").add(2);
  registry.gauge("b.level").set(-4);
  registry.histogram("c.sizes").record(3);
  const std::string json = registry.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"schema\": \"trichroma.metrics/2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"a.count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"b.level\": -4"), std::string::npos);
  EXPECT_NE(json.find("\"c.sizes\": { \"count\": 1, \"sum\": 3, "
                      "\"buckets\": [0, 0, 1] }"),
            std::string::npos);
}

TEST(Metrics, PrometheusNameSanitization) {
  EXPECT_EQ(obs::prometheus_name("cache.delta.stripe_contention"),
            "trichroma_cache_delta_stripe_contention");
  EXPECT_EQ(obs::prometheus_name("ladder.level-facets"),
            "trichroma_ladder_level_facets");
  EXPECT_EQ(obs::prometheus_name("Executor.QueueDepth9"),
            "trichroma_Executor_QueueDepth9");
}

TEST(Metrics, ToPrometheusGolden) {
  obs::MetricsRegistry registry;
  registry.counter("cache.delta.stripe_contention").add(7);
  registry.gauge("executor.queue_depth").set(3);
  obs::Histogram& h = registry.histogram("search.csp.domain_size");
  h.record(1);
  h.record(3);
  h.record(3);
  h.record(300);  // bucket 9 (256 < 300 <= 512)
  const std::string expected =
      "# TYPE trichroma_cache_delta_stripe_contention counter\n"
      "trichroma_cache_delta_stripe_contention 7\n"
      "# TYPE trichroma_executor_queue_depth gauge\n"
      "trichroma_executor_queue_depth 3\n"
      "# TYPE trichroma_search_csp_domain_size histogram\n"
      "trichroma_search_csp_domain_size_bucket{le=\"1\"} 1\n"
      "trichroma_search_csp_domain_size_bucket{le=\"2\"} 1\n"
      "trichroma_search_csp_domain_size_bucket{le=\"4\"} 3\n"
      "trichroma_search_csp_domain_size_bucket{le=\"8\"} 3\n"
      "trichroma_search_csp_domain_size_bucket{le=\"16\"} 3\n"
      "trichroma_search_csp_domain_size_bucket{le=\"32\"} 3\n"
      "trichroma_search_csp_domain_size_bucket{le=\"64\"} 3\n"
      "trichroma_search_csp_domain_size_bucket{le=\"128\"} 3\n"
      "trichroma_search_csp_domain_size_bucket{le=\"256\"} 3\n"
      "trichroma_search_csp_domain_size_bucket{le=\"512\"} 4\n"
      "trichroma_search_csp_domain_size_bucket{le=\"+Inf\"} 4\n"
      "trichroma_search_csp_domain_size_sum 307\n"
      "trichroma_search_csp_domain_size_count 4\n";
  EXPECT_EQ(registry.to_prometheus(), expected);
}

TEST(Metrics, ToPrometheusCollisionIsLoud) {
  // "a.b" and "a_b" sanitize to the same series — silently merging two
  // instruments would corrupt both, so the exporter must throw, naming them.
  obs::MetricsRegistry registry;
  registry.counter("a.b").add(1);
  registry.counter("a_b").add(2);
  EXPECT_THROW(registry.to_prometheus(), std::runtime_error);
  try {
    registry.to_prometheus();
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("a.b"), std::string::npos);
    EXPECT_NE(what.find("a_b"), std::string::npos);
  }
  // A histogram's synthesized _sum/_count/_bucket series are claims too.
  obs::MetricsRegistry synth;
  synth.histogram("x").record(1);
  synth.counter("x.sum").add(1);
  EXPECT_THROW(synth.to_prometheus(), std::runtime_error);
}

// ---------------------------------------------------------------- heartbeat

TEST(Heartbeat, AtomicWriteFilePublishesAndOverwrites) {
  const std::string dir = fresh_dir("atomic");
  const std::string path = dir + "/out.json";
  obs::atomic_write_file(path, "{\"v\": 1}\n");
  EXPECT_EQ(slurp(path), "{\"v\": 1}\n");
  obs::atomic_write_file(path, "{\"v\": 2}\n");
  EXPECT_EQ(slurp(path), "{\"v\": 2}\n");
  // No temporary litter after a successful publish.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);
  EXPECT_THROW(
      obs::atomic_write_file(dir + "/no-such-subdir/out.json", "x"),
      std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(Heartbeat, RenderedDocumentIsValidAndInlinesTheRegistry) {
  obs::MetricsRegistry registry;
  registry.counter("batch.tasks").add(2);
  registry.histogram("ladder.level_facets").record(13);
  const obs::HeartbeatProgress progress{17, 21};
  const std::string doc = obs::render_heartbeat(3, 1234, progress, registry);
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
  EXPECT_NE(doc.find("\"schema\": \"trichroma.heartbeat/1\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"seq\": 3"), std::string::npos);
  EXPECT_NE(doc.find("\"uptime_ms\": 1234"), std::string::npos);
  EXPECT_NE(doc.find("\"rss_bytes\":"), std::string::npos);
  EXPECT_NE(doc.find("\"done\": 17"), std::string::npos);
  EXPECT_NE(doc.find("\"total\": 21"), std::string::npos);
  // The registry document is inlined, not stringified.
  EXPECT_NE(doc.find("\"schema\": \"trichroma.metrics/2\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"batch.tasks\": 2"), std::string::npos);
}

TEST(Heartbeat, PeriodicWriterPublishesMidRunAndFlushesOnStop) {
  const std::string dir = fresh_dir("periodic");
  const std::string path = dir + "/snap.json";
  std::atomic<int> renders{0};
  obs::PeriodicSnapshotWriter writer(path, 0.005, [&renders] {
    return "{\"render\": " +
           std::to_string(renders.fetch_add(1, std::memory_order_relaxed)) +
           "}\n";
  });
  // Mid-run: wait for at least two interval ticks, then read — the file
  // must always be a complete document (rename-atomic publication).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (writer.writes() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(writer.writes(), 2u);
  const std::string mid = slurp(path);
  EXPECT_TRUE(JsonChecker(mid).valid()) << mid;
  writer.stop();
  const std::uint64_t after_stop = writer.writes();
  writer.stop();  // idempotent: no extra flush
  EXPECT_EQ(writer.writes(), after_stop);
  // The final flush published the last render.
  const std::string final_doc = slurp(path);
  EXPECT_TRUE(JsonChecker(final_doc).valid());
  EXPECT_EQ(final_doc, "{\"render\": " +
                           std::to_string(renders.load() - 1) + "}\n");
  std::filesystem::remove_all(dir);
}

TEST(Heartbeat, BatchPublishesProgressOverSelectedTasks) {
  const std::string dir = fresh_dir("batch-hb");
  BatchOptions options;
  options.solve.max_radius = 1;
  options.jobs = 1;
  options.only = {"identity", "consensus_2"};
  options.heartbeat_file = dir + "/heartbeat.json";
  options.heartbeat_interval_s = 0.005;
  const BatchResult result = run_batch(options);
  EXPECT_EQ(result.tasks.size(), 2u);
  const std::string doc = slurp(options.heartbeat_file);
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
  // The final flush runs after the drive joins: progress is complete.
  EXPECT_NE(doc.find("\"done\": 2"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"total\": 2"), std::string::npos);
  EXPECT_NE(doc.find("\"schema\": \"trichroma.heartbeat/1\""),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

#if !defined(_WIN32) && !defined(TRICHROMA_TSAN_BUILD)
// TSan intercepts fork+threads aggressively; the rename-atomicity being
// pinned here is platform behavior, so the plain builds cover it.
TEST(Heartbeat, SigkilledWriterLeavesAValidSnapshot) {
  const std::string dir = fresh_dir("sigkill");
  const std::string path = dir + "/heartbeat.json";
  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Child: a PRIVATE registry — the parent's global registry mutex may
    // have been mid-acquire at fork time in some other thread, and the
    // child must never touch inherited locks. Backstop alarm so an
    // orphaned child cannot outlive a crashed parent.
    ::alarm(60);
    obs::MetricsRegistry registry;
    registry.counter("child.alive").add(1);
    std::atomic<std::uint64_t> ticks{0};
    obs::HeartbeatWriter writer(
        path, 0.002,
        [&ticks] {
          return obs::HeartbeatProgress{
              ticks.fetch_add(1, std::memory_order_relaxed), 1000};
        },
        registry);
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  }
  // Parent: wait until the child has published at least one tick, let a few
  // more land, then SIGKILL it mid-flight.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    std::error_code ec;
    if (std::filesystem::exists(path, ec) &&
        std::filesystem::file_size(path, ec) > 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFSIGNALED(status));
  // Rename-atomic publication: whatever tick was last completed, the file
  // is a whole valid document — never a torn prefix.
  const std::string doc = slurp(path);
  ASSERT_FALSE(doc.empty());
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
  EXPECT_NE(doc.find("\"schema\": \"trichroma.heartbeat/1\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"child.alive\": 1"), std::string::npos);
  std::filesystem::remove_all(dir);
}
#endif

// -------------------------------------------------------------- trace-stats

std::string read_golden(const std::string& name) {
  const std::string path = std::string(TRICHROMA_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(TraceStats, MiniTraceAggregatesPinned) {
  const obs::TraceStats s = obs::analyze_trace(read_golden("mini_trace.json"));
  EXPECT_EQ(s.events, 10u);
  EXPECT_EQ(s.spans_paired, 5u);
  EXPECT_NEAR(s.wall_ms, 10.5, 1e-9);

  ASSERT_GE(s.spans.size(), 4u);
  EXPECT_EQ(s.spans[0].name, "pipeline/run");
  EXPECT_EQ(s.spans[0].count, 1u);
  EXPECT_NEAR(s.spans[0].total_ms, 10.0, 1e-9);
  EXPECT_EQ(s.spans[1].name, "map_search/prefix");
  EXPECT_NEAR(s.spans[1].total_ms, 6.0, 1e-9);
  EXPECT_EQ(s.spans[2].name, "batch/worker");
  EXPECT_EQ(s.spans[2].count, 2u);
  EXPECT_NEAR(s.spans[2].total_ms, 4.0, 1e-9);
  EXPECT_NEAR(s.spans[2].p50_ms, 2.0, 1e-9);
  EXPECT_NEAR(s.spans[2].p99_ms, 2.0, 1e-9);
  EXPECT_EQ(s.spans[3].name, "topology/subdivide_once");
  EXPECT_NEAR(s.spans[3].total_ms, 1.0, 1e-9);

  // Critical path descends across tids: run -> its longest contained span
  // -> the batch/worker span nested inside THAT.
  ASSERT_EQ(s.critical_path.size(), 3u);
  EXPECT_EQ(s.critical_path[0].name, "pipeline/run");
  EXPECT_EQ(s.critical_path[1].name, "map_search/prefix");
  EXPECT_EQ(s.critical_path[2].name, "batch/worker");
  EXPECT_NEAR(s.critical_path[2].dur_ms, 2.0, 1e-9);

  ASSERT_EQ(s.workers.size(), 1u);
  EXPECT_EQ(s.workers[0].tid, 2u);
  EXPECT_EQ(s.workers[0].spans, 2u);
  EXPECT_NEAR(s.workers[0].busy_ms, 4.0, 1e-9);
  EXPECT_NEAR(s.workers[0].utilization, 4.0 / 10.5, 1e-9);

  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters.at("pipeline.runs"), 1u);
  EXPECT_EQ(s.counters.at("batch.tasks"), 2u);

  const std::string text = obs::format_trace_stats(s);
  EXPECT_NE(text.find("pipeline/run"), std::string::npos);
  EXPECT_NE(text.find("critical path"), std::string::npos);
  EXPECT_NE(text.find("batch workers:"), std::string::npos);
}

TEST(TraceStats, RejectsDocumentsWithoutTraceEvents) {
  EXPECT_THROW(obs::analyze_trace("{}"), std::runtime_error);
  EXPECT_THROW(obs::analyze_trace("not json at all"), std::runtime_error);
}

TEST(TraceStats, LiveCaptureSpanCountsMatchRegistryCounters) {
  // End-to-end: solve under tracing, then demand the analytics agree with
  // the registry snapshot embedded in the very same trace. `pipeline/run`
  // spans come 1:1 from run_pipeline, `topology/subdivide_once` spans from
  // ladder builds.
  obs::MetricsRegistry::global().reset();
  obs::trace_start();
  run_pipeline(zoo::subdivision_task(1));
  obs::trace_stop();
  const obs::TraceStats s = obs::analyze_trace(obs::trace_to_json());
  ASSERT_EQ(obs::trace_dropped(), 0u);

  std::uint64_t run_spans = 0, subdiv_spans = 0;
  for (const obs::SpanAggregate& agg : s.spans) {
    if (agg.name == "pipeline/run") run_spans = agg.count;
    if (agg.name == "topology/subdivide_once") subdiv_spans = agg.count;
  }
  EXPECT_EQ(run_spans, s.counters.at("pipeline.runs"));
  EXPECT_EQ(subdiv_spans, s.counters.at("topology.subdivide.builds"));
  EXPECT_GE(run_spans, 1u);
  // The live trace also exercises the critical-path extractor.
  ASSERT_FALSE(s.critical_path.empty());
  EXPECT_EQ(s.critical_path[0].name, "pipeline/run");
}

}  // namespace
}  // namespace trichroma
