// The tracing + metrics subsystem (src/obs): disabled-by-default behavior,
// Chrome trace-event export validity, the B/E pairing guarantee (spans drop
// whole, never half), session restarts, overflow accounting, and the
// metrics registry. The property test runs a real two-job batch under
// tracing, so the TSan job exercises the exporter/writer handshake.

#include <cctype>
#include <cstddef>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/batch.h"
#include "solver/pipeline.h"
#include "tasks/zoo.h"

namespace trichroma {
namespace {

// Minimal recursive-descent JSON syntax checker — enough to assert the
// exporter emits well-formed documents without a JSON dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    const bool ok = value();
    ws();
    return ok && i_ == s_.size();
  }

 private:
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\t' || s_[i_] == '\r')) {
      ++i_;
    }
  }
  bool eat(char c) {
    ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++i_) {
      if (i_ >= s_.size() || s_[i_] != *p) return false;
    }
    return true;
  }
  bool string_lit() {
    if (!eat('"')) return false;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;
        if (i_ >= s_.size()) return false;
      }
      ++i_;
    }
    return eat('"');
  }
  bool number() {
    ws();
    const std::size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    while (i_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
                              s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
                              s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    return i_ > start;
  }
  bool value() {
    ws();
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': {
        ++i_;
        if (eat('}')) return true;
        do {
          if (!string_lit() || !eat(':') || !value()) return false;
        } while (eat(','));
        return eat('}');
      }
      case '[': {
        ++i_;
        if (eat(']')) return true;
        do {
          if (!value()) return false;
        } while (eat(','));
        return eat(']');
      }
      case '"':
        return string_lit();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

// One trace event as scraped from the exporter's line-per-event layout.
struct ScrapedEvent {
  std::string name;
  char phase = '?';
  long tid = -1;
};

std::string field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\": ";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return {};
  std::size_t from = at + tag.size();
  std::size_t to = from;
  if (line[from] == '"') {
    ++from;
    to = line.find('"', from);
  } else {
    while (to < line.size() && line[to] != ',' && line[to] != '}') ++to;
  }
  return line.substr(from, to - from);
}

std::vector<ScrapedEvent> scrape_events(const std::string& json) {
  std::vector<ScrapedEvent> out;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    const std::string ph = field(line, "ph");
    if (ph.empty()) continue;
    ScrapedEvent e;
    e.phase = ph[0];
    e.name = field(line, "name");
    e.tid = std::stol(field(line, "tid"));
    out.push_back(std::move(e));
  }
  return out;
}

/// The pairing property: per thread, B/E events form a well-nested stack
/// with matching names (buffer order preserves nesting — see trace.h).
void expect_spans_pair(const std::vector<ScrapedEvent>& events) {
  std::map<long, std::vector<std::string>> stacks;
  for (const ScrapedEvent& e : events) {
    if (e.phase == 'B') {
      stacks[e.tid].push_back(e.name);
    } else if (e.phase == 'E') {
      auto& stack = stacks[e.tid];
      ASSERT_FALSE(stack.empty()) << "unmatched E event: " << e.name;
      EXPECT_EQ(stack.back(), e.name);
      stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }
}

bool has_event_with_prefix(const std::vector<ScrapedEvent>& events,
                           const std::string& prefix) {
  for (const ScrapedEvent& e : events) {
    if (e.name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

TEST(Trace, DisabledByDefaultAndSpansAreNoOps) {
  EXPECT_FALSE(obs::trace_enabled());
  {
    TRI_SPAN("should/never/appear");
    obs::trace_instant("also/never");
    obs::trace_counter("nor/this", 1.0);
  }
  // Export with no session: still a valid document (just the trailing
  // metrics instant), and nothing of the above in it.
  const std::string json = obs::trace_to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_EQ(json.find("should/never/appear"), std::string::npos);
}

TEST(Trace, SessionCollectsSpansInstantsAndCounters) {
  obs::trace_start();
  {
    TRI_SPAN("outer");
    {
      TRI_SPAN("prefix/", "suffix");
      TRI_SPAN("numbered/r=", static_cast<long long>(3));
    }
    obs::trace_instant("point");
    obs::trace_counter("gauge", 42.5);
  }
  obs::trace_stop();
  const std::string json = obs::trace_to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  const auto events = scrape_events(json);
  expect_spans_pair(events);
  EXPECT_TRUE(has_event_with_prefix(events, "outer"));
  EXPECT_TRUE(has_event_with_prefix(events, "prefix/suffix"));
  EXPECT_TRUE(has_event_with_prefix(events, "numbered/r=3"));
  EXPECT_TRUE(has_event_with_prefix(events, "point"));
  EXPECT_TRUE(has_event_with_prefix(events, "gauge"));
  EXPECT_EQ(obs::trace_dropped(), 0u);
}

TEST(Trace, TracedPipelineRunEmitsValidPairedEventsFromAllLayers) {
  // The property test: a real two-job batch under tracing, over tasks that
  // include a solvable one (so the probes run). The caller and a pool
  // worker write their own buffers; the export afterwards must be valid
  // JSON and every span must pair up on its own thread.
  obs::trace_start();
  BatchOptions options;
  options.jobs = 2;
  options.only = {"identity", "subdivision1", "hourglass"};
  const BatchResult result = run_batch(options);
  obs::trace_stop();
  ASSERT_EQ(result.tasks.size(), 3u);
  EXPECT_EQ(result.unknown, 0);

  const std::string json = obs::trace_to_json();
  EXPECT_TRUE(JsonChecker(json).valid());
  const auto events = scrape_events(json);
  expect_spans_pair(events);
  // All four instrumented layers speak up: the pipeline, map search, the
  // topology substrate, and the executor running the batch's task loops.
  EXPECT_TRUE(has_event_with_prefix(events, "pipeline/"));
  EXPECT_TRUE(has_event_with_prefix(events, "map_search/"));
  EXPECT_TRUE(has_event_with_prefix(events, "topology/"));
  EXPECT_TRUE(has_event_with_prefix(events, "executor/"));
}

TEST(Trace, OverflowDropsWholeSpansAndCounts) {
  // Capacity 4 = two spans; everything past that drops whole (no orphan B
  // events) and is counted.
  obs::trace_start(4);
  for (int i = 0; i < 10; ++i) {
    TRI_SPAN("tiny");
  }
  obs::trace_stop();
  EXPECT_GT(obs::trace_dropped(), 0u);
  const std::string json = obs::trace_to_json();
  EXPECT_TRUE(JsonChecker(json).valid());
  const auto events = scrape_events(json);
  expect_spans_pair(events);
  std::size_t recorded = 0;
  for (const ScrapedEvent& e : events) recorded += e.phase == 'B' ? 1 : 0;
  EXPECT_EQ(recorded, 2u);
  EXPECT_NE(json.find("\"dropped_events\": \"16\""), std::string::npos);
}

TEST(Trace, RestartDiscardsThePreviousSession) {
  obs::trace_start();
  { TRI_SPAN("first_session_span"); }
  obs::trace_stop();
  obs::trace_start();
  { TRI_SPAN("second_session_span"); }
  obs::trace_stop();
  const std::string json = obs::trace_to_json();
  EXPECT_EQ(json.find("first_session_span"), std::string::npos);
  EXPECT_NE(json.find("second_session_span"), std::string::npos);
  EXPECT_EQ(obs::trace_dropped(), 0u);
}

TEST(Trace, NamesAreEscapedInTheExport) {
  obs::trace_start();
  obs::trace_instant("quote\"and\\slash");
  obs::trace_stop();
  const std::string json = obs::trace_to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("quote\\\"and\\\\slash"), std::string::npos);
}

TEST(Metrics, CounterAddValueReset) {
  obs::Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(Metrics, RegistryInternsByNameAndSnapshotsSorted) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("zzz.last");
  obs::Counter& b = registry.counter("aaa.first");
  obs::Counter& a2 = registry.counter("zzz.last");
  EXPECT_EQ(&a, &a2);  // stable interned reference
  a.add(3);
  b.add(1);
  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].first, "aaa.first");
  EXPECT_EQ(snapshot[0].second, 1u);
  EXPECT_EQ(snapshot[1].first, "zzz.last");
  EXPECT_EQ(snapshot[1].second, 3u);
  registry.reset();
  EXPECT_EQ(registry.counter("zzz.last").value(), 0u);
  EXPECT_EQ(registry.snapshot().size(), 2u);  // reset keeps registrations
}

TEST(Metrics, ToJsonIsValidAndCarriesTheSchema) {
  obs::MetricsRegistry registry;
  registry.counter("cache.image.hits").add(7);
  const std::string json = registry.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"schema\": \"trichroma.metrics/2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"cache.image.hits\": 7"), std::string::npos);
  // The empty registry renders as an empty counters object, still valid.
  obs::MetricsRegistry empty;
  EXPECT_TRUE(JsonChecker(empty.to_json()).valid());
}

TEST(Metrics, GlobalRegistryAccumulatesSolverCounters) {
  obs::MetricsRegistry::global().reset();
  run_pipeline(zoo::hourglass());
  const auto snapshot = obs::MetricsRegistry::global().snapshot();
  std::map<std::string, std::uint64_t> counters(snapshot.begin(),
                                                snapshot.end());
  EXPECT_GE(counters["pipeline.runs"], 1u);
  EXPECT_GE(counters["pipeline.engines_run"], 1u);
  EXPECT_GE(counters["topology.compiles"], 1u);
  EXPECT_GE(counters["topology.lap_scans"], 1u);
}

}  // namespace
}  // namespace trichroma
