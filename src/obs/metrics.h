#pragma once
// Process-wide metrics: a registry of named monotonic counters, gauges and
// log-bucketed histograms the solver layers report into as they work (cache
// hits, subdivisions built, CSP domain sizes, run latencies, ...). All three
// instrument kinds share the interned-reference idiom: look the instrument up
// once by its dotted path (the reference stays valid for the registry's
// lifetime), then record through plain relaxed atomics — always on, cheap
// enough for warm paths; genuinely hot paths batch locally and flush once
// (see map_search.cpp's per-CSP domain histogram).
//
// Naming scheme: dotted lower-case paths, layer first —
//   map_search.*    find_decision_map (searches, cap hits, overflows)
//   search.*        search-shape distributions (CSP domain sizes, ...)
//   pipeline.*      runs, engine outcomes, run latencies
//   topology.*      substrate builds (subdivide, compile, lap scans)
//   ladder.*        subdivision-ladder shape (per-level facet counts)
//   cache.*         DeltaImageCache images/masks and the verdict store
//   batch.*         the batch driver
// Trace span names use slash-separated paths instead ("map_search/build_csp");
// the dot/slash split keeps counter tracks and timeline spans visually
// distinct in Perfetto.
//
// Histogram determinism: buckets are fixed base-2 boundaries (upper bound of
// bucket i is 2^i), so the bucket vector is a pure function of the recorded
// multiset — recording the same values in any order, from any number of
// threads, yields identical counts (relaxed adds commute). That is what lets
// count-valued histograms (domain sizes, ladder level sizes) be re-derived
// deterministically for reports; see Histogram::bucket_index.
//
// Determinism boundary: *registry* values never feed back into solver
// decisions and never enter the deterministic report fields; they surface
// only through `--metrics`, `batch --trace-dir` metrics.json, heartbeats and
// the trace export's metadata event. The deterministic histograms embedded
// in reports (report.h) are accumulated separately inside the engines and
// merely reuse Histogram::bucket_index for identical bucketing.

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace trichroma::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A point-in-time level (queue depth, resident set, ...). Last write wins;
/// no aggregation beyond that, so gauges are pure observability.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-boundary base-2 log histogram over non-negative integer samples.
/// Bucket i < kFiniteBuckets holds samples with value <= 2^i (cumulatively:
/// the first bucket whose upper bound admits the value); the last bucket is
/// the +Inf overflow. Record is a handful of relaxed fetch_adds — lock-free,
/// wait-free, and order-independent, so identical sample multisets produce
/// identical snapshots at every thread count.
class Histogram {
 public:
  static constexpr std::size_t kFiniteBuckets = 32;   // upper bounds 2^0..2^31
  static constexpr std::size_t kBuckets = kFiniteBuckets + 1;  // + the +Inf bucket

  /// The bucket `value` lands in: 0 for value <= 1, otherwise the smallest i
  /// with value <= 2^i, clamped to the +Inf bucket. Pure function — shared
  /// with the deterministic report rollups so registry histograms and report
  /// histograms bucket identically.
  static constexpr std::size_t bucket_index(std::uint64_t value) {
    if (value <= 1) return 0;
    const std::size_t i = static_cast<std::size_t>(std::bit_width(value - 1));
    return i < kFiniteBuckets ? i : kFiniteBuckets;
  }

  /// Upper bound of finite bucket i (2^i). The +Inf bucket has no finite
  /// bound; callers render it as "+Inf".
  static constexpr std::uint64_t bucket_upper_bound(std::size_t i) {
    return std::uint64_t{1} << i;
  }

  void record(std::uint64_t value) {
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Bulk merge of a locally accumulated bucket vector (hot paths tally into
  /// a plain array and flush once, paying kBuckets adds per flush instead of
  /// three per sample). `bucket_counts[i]` samples land in bucket i; `sum`
  /// and `count` are the corresponding value total and sample count.
  void merge(const std::array<std::uint64_t, kBuckets>& bucket_counts,
             std::uint64_t count, std::uint64_t sum) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (bucket_counts[i] != 0)
        buckets_[i].fetch_add(bucket_counts[i], std::memory_order_relaxed);
    }
    sum_.fetch_add(sum, std::memory_order_relaxed);
    count_.fetch_add(count, std::memory_order_relaxed);
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// Point-in-time copy of one histogram, for rendering.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};
};

class MetricsRegistry {
 public:
  /// The process-wide registry every layer reports into.
  static MetricsRegistry& global();

  /// The counter named `name`, created on first use. The reference stays
  /// valid for the registry's lifetime — cache it on hot paths.
  Counter& counter(const std::string& name);

  /// The gauge named `name`, created on first use (same lifetime contract).
  Gauge& gauge(const std::string& name);

  /// The histogram named `name`, created on first use (same lifetime
  /// contract). A name registered as one instrument kind cannot be reused
  /// as another; that throws std::logic_error at lookup.
  Histogram& histogram(const std::string& name);

  /// All counters, sorted by name (deterministic rendering order).
  std::vector<std::pair<std::string, std::uint64_t>> snapshot() const;
  /// All gauges, sorted by name.
  std::vector<std::pair<std::string, std::int64_t>> snapshot_gauges() const;
  /// All histograms, sorted by name.
  std::vector<std::pair<std::string, HistogramSnapshot>> snapshot_histograms()
      const;

  /// Zeroes every instrument (all stay registered).
  void reset();

  /// {"schema": "trichroma.metrics/2", "counters": {...}, "gauges": {...},
  ///  "histograms": {name: {"count", "sum", "buckets": [...]}, ...}},
  /// names sorted, pretty-printed, trailing newline. Histogram bucket arrays
  /// are trimmed after the last non-zero bucket (the boundaries are fixed,
  /// so the prefix is self-describing).
  std::string to_json() const;

  /// Prometheus text exposition (version 0.0.4) of every instrument.
  /// Dotted/hyphenated paths are sanitized to `trichroma_`-prefixed metric
  /// names ([a-zA-Z0-9_] with every other byte mapped to '_'); histograms
  /// render the conventional cumulative `_bucket{le="..."}` series plus
  /// `_sum` and `_count`. Two distinct instrument names that sanitize to the
  /// same metric name — or to colliding `_bucket`/`_sum`/`_count` series —
  /// throw std::runtime_error naming both, instead of silently merging.
  std::string to_prometheus() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// `path` sanitized into a Prometheus metric name: "trichroma_" + the path
/// with every byte outside [a-zA-Z0-9_] replaced by '_'. Exposed for the
/// lint tooling and tests.
std::string prometheus_name(const std::string& path);

}  // namespace trichroma::obs
