#include "obs/metrics.h"

#include <stdexcept>

namespace trichroma::obs {

namespace {

/// Buckets after the last non-zero one carry no information (boundaries are
/// fixed), so renderers emit the prefix only. Returns the count of buckets
/// to render; at least 1 so empty histograms still show a bucket.
std::size_t trimmed_buckets(const HistogramSnapshot& h) {
  std::size_t n = Histogram::kBuckets;
  while (n > 1 && h.buckets[n - 1] == 0) --n;
  return n;
}

}  // namespace

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: a counter bumped during static destruction (by
  // another static's destructor or a thread still running at exit) must
  // never see a destroyed registry.
  static MetricsRegistry* instance = new MetricsRegistry;
  return *instance;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (gauges_.count(name) != 0 || histograms_.count(name) != 0)
    throw std::logic_error("metrics: '" + name +
                           "' already registered as another instrument kind");
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (counters_.count(name) != 0 || histograms_.count(name) != 0)
    throw std::logic_error("metrics: '" + name +
                           "' already registered as another instrument kind");
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (counters_.count(name) != 0 || gauges_.count(name) != 0)
    throw std::logic_error("metrics: '" + name +
                           "' already registered as another instrument kind");
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsRegistry::snapshot()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  // std::map iterates in key order, so the snapshot is already sorted.
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

std::vector<std::pair<std::string, std::int64_t>>
MetricsRegistry::snapshot_gauges() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, std::int64_t>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back(name, gauge->value());
  }
  return out;
}

std::vector<std::pair<std::string, HistogramSnapshot>>
MetricsRegistry::snapshot_histograms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, HistogramSnapshot>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    HistogramSnapshot snap;
    snap.count = hist->count();
    snap.sum = hist->sum();
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i)
      snap.buckets[i] = hist->bucket(i);
    out.emplace_back(name, snap);
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, hist] : histograms_) hist->reset();
}

std::string MetricsRegistry::to_json() const {
  const auto counters = snapshot();
  const auto gauges = snapshot_gauges();
  const auto histograms = snapshot_histograms();
  std::string out = "{\n  \"schema\": \"trichroma.metrics/2\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": { \"count\": " + std::to_string(h.count) +
           ", \"sum\": " + std::to_string(h.sum) + ", \"buckets\": [";
    const std::size_t n = trimmed_buckets(h);
    for (std::size_t i = 0; i < n; ++i) {
      if (i != 0) out += ", ";
      out += std::to_string(h.buckets[i]);
    }
    out += "] }";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

std::string prometheus_name(const std::string& path) {
  std::string out = "trichroma_";
  out.reserve(out.size() + path.size());
  for (char c : path) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

namespace {

/// Claims `metric` for the instrument at `path`, failing loudly when a
/// previously claimed instrument sanitized to the same series name —
/// silently merging two counters would corrupt both.
void claim(std::map<std::string, std::string>& claimed, const std::string& metric,
           const std::string& path) {
  auto [it, inserted] = claimed.emplace(metric, path);
  if (!inserted && it->second != path)
    throw std::runtime_error("to_prometheus: name collision: '" + it->second +
                             "' and '" + path + "' both map to '" + metric + "'");
}

}  // namespace

std::string MetricsRegistry::to_prometheus() const {
  const auto counters = snapshot();
  const auto gauges = snapshot_gauges();
  const auto histograms = snapshot_histograms();

  // Claim every emitted series name up front so a collision aborts before
  // any partial text is produced. Histograms claim their synthesized
  // _bucket/_sum/_count series too: a counter named "x_sum" colliding with
  // a histogram named "x" is just as much a merge hazard.
  std::map<std::string, std::string> claimed;
  for (const auto& [path, value] : counters) {
    (void)value;
    claim(claimed, prometheus_name(path), path);
  }
  for (const auto& [path, value] : gauges) {
    (void)value;
    claim(claimed, prometheus_name(path), path);
  }
  for (const auto& [path, h] : histograms) {
    (void)h;
    const std::string base = prometheus_name(path);
    claim(claimed, base, path);
    claim(claimed, base + "_bucket", path);
    claim(claimed, base + "_sum", path);
    claim(claimed, base + "_count", path);
  }

  std::string out;
  for (const auto& [path, value] : counters) {
    const std::string name = prometheus_name(path);
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [path, value] : gauges) {
    const std::string name = prometheus_name(path);
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [path, h] : histograms) {
    const std::string name = prometheus_name(path);
    out += "# TYPE " + name + " histogram\n";
    // Cumulative buckets, trimmed after the last non-zero finite bucket
    // (fixed boundaries make the omitted tail redundant); the +Inf bucket is
    // mandatory and always equals _count.
    std::uint64_t cumulative = 0;
    const std::size_t n = trimmed_buckets(h);
    for (std::size_t i = 0; i < n && i < Histogram::kFiniteBuckets; ++i) {
      cumulative += h.buckets[i];
      out += name + "_bucket{le=\"" +
             std::to_string(Histogram::bucket_upper_bound(i)) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += name + "_sum " + std::to_string(h.sum) + "\n";
    out += name + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

}  // namespace trichroma::obs
