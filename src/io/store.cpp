#include "io/store.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "topology/compiled.h"

namespace trichroma::io {

namespace fs = std::filesystem;

std::uint64_t fnv1a64(const void* data, std::size_t size) {
  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Record bodies are line-oriented `key=value`; values are percent-escaped
// so reasons/details with newlines or '%' survive the round trip.
std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '%':
        out += "%25";
        break;
      case '\n':
        out += "%0A";
        break;
      case '\r':
        out += "%0D";
        break;
      default:
        out += c;
    }
  }
  return out;
}

bool unescape(const std::string& s, std::string* out) {
  out->clear();
  out->reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      *out += s[i];
      continue;
    }
    if (i + 2 >= s.size()) return false;
    const auto nib = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      return -1;
    };
    const int hi = nib(s[i + 1]);
    const int lo = nib(s[i + 2]);
    if (hi < 0 || lo < 0) return false;
    *out += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return true;
}

void kv(std::string& out, const std::string& key, const std::string& value) {
  out += key;
  out += '=';
  out += escape(value);
  out += '\n';
}

void kv_u(std::string& out, const std::string& key, std::uint64_t value) {
  kv(out, key, std::to_string(value));
}

void kv_i(std::string& out, const std::string& key, long long value) {
  kv(out, key, std::to_string(value));
}

/// Map-backed reader with a sticky error flag: every missing key or parse
/// failure flips `ok` and the caller checks once at the end. Keeps the
/// "any anomaly is a miss" contract one `if` instead of thirty.
class RecordReader {
 public:
  explicit RecordReader(const std::string& body) {
    std::size_t start = 0;
    while (start < body.size()) {
      std::size_t end = body.find('\n', start);
      if (end == std::string::npos) end = body.size();
      const std::string line = body.substr(start, end - start);
      start = end + 1;
      if (line.empty()) continue;
      const std::size_t eq = line.find('=');
      if (eq == std::string::npos) {
        ok = false;
        return;
      }
      fields_[line.substr(0, eq)] = line.substr(eq + 1);
    }
  }

  std::string str(const std::string& key) {
    auto it = fields_.find(key);
    std::string out;
    if (it == fields_.end() || !unescape(it->second, &out)) ok = false;
    return out;
  }

  std::uint64_t u64(const std::string& key) {
    const std::string raw = str(key);
    if (!ok) return 0;
    if (raw.empty()) {
      ok = false;
      return 0;
    }
    std::uint64_t out = 0;
    for (const char c : raw) {
      if (c < '0' || c > '9') {
        ok = false;
        return 0;
      }
      out = out * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return out;
  }

  long long i64(const std::string& key) {
    std::string raw = str(key);
    if (!ok) return 0;
    bool neg = false;
    if (!raw.empty() && raw[0] == '-') {
      neg = true;
      raw.erase(raw.begin());
    }
    if (raw.empty()) {
      ok = false;
      return 0;
    }
    long long out = 0;
    for (const char c : raw) {
      if (c < '0' || c > '9') {
        ok = false;
        return 0;
      }
      out = out * 10 + (c - '0');
    }
    return neg ? -out : out;
  }

  bool boolean(const std::string& key) {
    const std::string raw = str(key);
    if (raw == "1") return true;
    if (raw == "0") return false;
    ok = false;
    return false;
  }

  bool ok = true;

 private:
  std::map<std::string, std::string> fields_;
};

bool parse_verdict_str(const std::string& s, Verdict* out) {
  if (s == "SOLVABLE") *out = Verdict::Solvable;
  else if (s == "UNSOLVABLE") *out = Verdict::Unsolvable;
  else if (s == "UNKNOWN") *out = Verdict::Unknown;
  else return false;
  return true;
}

bool parse_side(const std::string& s, EngineSide* out) {
  if (s == "exact") *out = EngineSide::Exact;
  else if (s == "impossibility") *out = EngineSide::Impossibility;
  else if (s == "possibility") *out = EngineSide::Possibility;
  else if (s == "support") *out = EngineSide::Support;
  else return false;
  return true;
}

bool parse_status(const std::string& s, EngineStatus* out) {
  if (s == "conclusive") *out = EngineStatus::Conclusive;
  else if (s == "inconclusive") *out = EngineStatus::Inconclusive;
  else if (s == "completed") *out = EngineStatus::Completed;
  else if (s == "cancelled") *out = EngineStatus::Cancelled;
  else if (s == "skipped") *out = EngineStatus::Skipped;
  else return false;
  return true;
}

}  // namespace

std::string options_digest(const SolvabilityOptions& options,
                           const std::string& resolved_schedule) {
  std::string key;
  kv_i(key, "max_radius", options.max_radius);
  kv_u(key, "node_cap", options.node_cap);
  kv(key, "use_characterization", options.use_characterization ? "1" : "0");
  kv(key, "reuse_subdivisions", options.reuse_subdivisions ? "1" : "0");
  kv(key, "reuse_images", options.reuse_images ? "1" : "0");
  kv(key, "schedule", resolved_schedule);
  return hex64(fnv1a64(key.data(), key.size()));
}

std::string wrap_record(const std::string& kind, const std::string& body) {
  std::string out = kStoreSchema;
  out += ' ';
  out += kind;
  out += '\n';
  out += "len:" + std::to_string(body.size()) +
         " fnv64:" + hex64(fnv1a64(body.data(), body.size())) + '\n';
  out += body;
  return out;
}

bool unwrap_record(const std::string& file_contents, const std::string& kind,
                   std::string* body) {
  const std::size_t nl1 = file_contents.find('\n');
  if (nl1 == std::string::npos) return false;
  if (file_contents.substr(0, nl1) != std::string(kStoreSchema) + " " + kind) {
    return false;
  }
  const std::size_t nl2 = file_contents.find('\n', nl1 + 1);
  if (nl2 == std::string::npos) return false;
  const std::string header = file_contents.substr(nl1 + 1, nl2 - nl1 - 1);
  std::size_t len = 0;
  char digest[17] = {0};
  if (std::sscanf(header.c_str(), "len:%zu fnv64:%16s", &len, digest) != 2) {
    return false;
  }
  if (file_contents.size() - (nl2 + 1) != len) return false;
  const char* payload = file_contents.data() + nl2 + 1;
  if (hex64(fnv1a64(payload, len)) != digest) return false;
  body->assign(payload, len);
  return true;
}

std::string serialize_verdict_record(const PipelineReport& report,
                                     const VerdictRecordBudget& budget) {
  std::string out;
  kv(out, "format", kVerdictRecordSchema);
  kv_i(out, "budget.max_radius", budget.max_radius);
  kv_u(out, "budget.node_cap", budget.node_cap);
  kv(out, "budget.use_characterization",
     budget.use_characterization ? "1" : "0");
  kv(out, "budget.reuse_subdivisions", budget.reuse_subdivisions ? "1" : "0");
  kv(out, "budget.reuse_images", budget.reuse_images ? "1" : "0");
  kv(out, "task_name", report.task_name);
  kv_i(out, "num_processes", report.num_processes);
  kv_u(out, "input_facets", report.input_facets);
  kv_u(out, "output_facets", report.output_facets);
  kv(out, "schedule", report.schedule);
  kv(out, "verdict", to_string(report.verdict));
  kv(out, "reason", report.reason);
  kv_i(out, "radius", report.radius);
  kv(out, "via_characterization", report.via_characterization ? "1" : "0");
  kv(out, "characterization_computed",
     report.characterization_computed ? "1" : "0");
  kv_u(out, "engines", report.engines.size());
  for (std::size_t i = 0; i < report.engines.size(); ++i) {
    const EngineReport& e = report.engines[i];
    const std::string p = "e" + std::to_string(i) + ".";
    kv(out, p + "name", e.name);
    kv(out, p + "side", to_string(e.side));
    kv(out, p + "status", to_string(e.status));
    kv_i(out, p + "precedence", e.precedence);
    kv(out, p + "verdict", to_string(e.verdict));
    kv(out, p + "reason", e.reason);
    kv(out, p + "detail", e.detail);
    kv_i(out, p + "radius_reached", e.radius_reached);
    kv_i(out, p + "witness_radius", e.witness_radius);
    kv_u(out, p + "nodes_explored", e.nodes_explored);
    kv_u(out, p + "image_cache_hits", e.image_cache_hits);
    kv_u(out, p + "image_cache_misses", e.image_cache_misses);
    kv_u(out, p + "edge_mask_hits", e.edge_mask_hits);
    kv_u(out, p + "edge_mask_misses", e.edge_mask_misses);
    kv_u(out, p + "capped", e.capped.size());
    for (std::size_t j = 0; j < e.capped.size(); ++j) {
      kv(out, p + "capped." + std::to_string(j), e.capped[j]);
    }
    kv_u(out, p + "overflowed", e.overflowed.size());
    for (std::size_t j = 0; j < e.overflowed.size(); ++j) {
      kv(out, p + "overflowed." + std::to_string(j), e.overflowed[j]);
    }
    // Record format v3: the deterministic probe distributions. They feed
    // the report's "run" rollups, so replayed hits must carry byte-equal
    // values or warm runs would diverge from cold ones.
    kv_u(out, p + "domain_size_count", e.domain_size_count);
    kv_u(out, p + "domain_size_sum", e.domain_size_sum);
    kv_u(out, p + "domain_size_hist", e.domain_size_hist.size());
    for (std::size_t j = 0; j < e.domain_size_hist.size(); ++j) {
      kv_u(out, p + "domain_size_hist." + std::to_string(j),
           e.domain_size_hist[j]);
    }
    kv_u(out, p + "level_facets", e.level_facets.size());
    for (std::size_t j = 0; j < e.level_facets.size(); ++j) {
      kv_u(out, p + "level_facets." + std::to_string(j), e.level_facets[j]);
    }
  }
  return out;
}

bool parse_verdict_record(const std::string& body, PipelineReport* report,
                          VerdictRecordBudget* budget) {
  RecordReader r(body);
  if (!r.ok) return false;
  if (r.str("format") != kVerdictRecordSchema) return false;

  VerdictRecordBudget b;
  b.max_radius = static_cast<int>(r.i64("budget.max_radius"));
  b.node_cap = r.u64("budget.node_cap");
  b.use_characterization = r.boolean("budget.use_characterization");
  b.reuse_subdivisions = r.boolean("budget.reuse_subdivisions");
  b.reuse_images = r.boolean("budget.reuse_images");

  PipelineReport out;  // build fully before committing anything
  out.task_name = r.str("task_name");
  out.num_processes = static_cast<int>(r.i64("num_processes"));
  out.input_facets = static_cast<std::size_t>(r.u64("input_facets"));
  out.output_facets = static_cast<std::size_t>(r.u64("output_facets"));
  out.schedule = r.str("schedule");
  if (!parse_verdict_str(r.str("verdict"), &out.verdict)) return false;
  out.reason = r.str("reason");
  out.radius = static_cast<int>(r.i64("radius"));
  out.via_characterization = r.boolean("via_characterization");
  out.characterization_computed = r.boolean("characterization_computed");
  const std::uint64_t engines = r.u64("engines");
  if (!r.ok || engines > 64) return false;
  out.engines.resize(engines);
  for (std::size_t i = 0; i < engines; ++i) {
    EngineReport& e = out.engines[i];
    const std::string p = "e" + std::to_string(i) + ".";
    e.name = r.str(p + "name");
    if (!parse_side(r.str(p + "side"), &e.side)) return false;
    if (!parse_status(r.str(p + "status"), &e.status)) return false;
    e.precedence = static_cast<int>(r.i64(p + "precedence"));
    if (!parse_verdict_str(r.str(p + "verdict"), &e.verdict)) return false;
    e.reason = r.str(p + "reason");
    e.detail = r.str(p + "detail");
    e.radius_reached = static_cast<int>(r.i64(p + "radius_reached"));
    e.witness_radius = static_cast<int>(r.i64(p + "witness_radius"));
    e.nodes_explored = static_cast<std::size_t>(r.u64(p + "nodes_explored"));
    e.image_cache_hits =
        static_cast<std::size_t>(r.u64(p + "image_cache_hits"));
    e.image_cache_misses =
        static_cast<std::size_t>(r.u64(p + "image_cache_misses"));
    e.edge_mask_hits = static_cast<std::size_t>(r.u64(p + "edge_mask_hits"));
    e.edge_mask_misses =
        static_cast<std::size_t>(r.u64(p + "edge_mask_misses"));
    const std::uint64_t capped = r.u64(p + "capped");
    if (!r.ok || capped > 1024) return false;
    for (std::size_t j = 0; j < capped; ++j) {
      e.capped.push_back(r.str(p + "capped." + std::to_string(j)));
    }
    const std::uint64_t overflowed = r.u64(p + "overflowed");
    if (!r.ok || overflowed > 1024) return false;
    for (std::size_t j = 0; j < overflowed; ++j) {
      e.overflowed.push_back(r.str(p + "overflowed." + std::to_string(j)));
    }
    e.domain_size_count = r.u64(p + "domain_size_count");
    e.domain_size_sum = r.u64(p + "domain_size_sum");
    const std::uint64_t hist_buckets = r.u64(p + "domain_size_hist");
    if (!r.ok || hist_buckets > 64) return false;
    for (std::size_t j = 0; j < hist_buckets; ++j) {
      e.domain_size_hist.push_back(
          r.u64(p + "domain_size_hist." + std::to_string(j)));
    }
    const std::uint64_t level_facets = r.u64(p + "level_facets");
    if (!r.ok || level_facets > 64) return false;
    for (std::size_t j = 0; j < level_facets; ++j) {
      e.level_facets.push_back(r.u64(p + "level_facets." + std::to_string(j)));
    }
    e.wall_ms = 0.0;  // wall clocks are never stored
  }
  if (!r.ok) return false;

  // Commit: record-carried fields only. Options, cache markers and wall
  // clocks stay with the caller / stay zero.
  report->task_name = std::move(out.task_name);
  report->num_processes = out.num_processes;
  report->input_facets = out.input_facets;
  report->output_facets = out.output_facets;
  report->schedule = std::move(out.schedule);
  report->verdict = out.verdict;
  report->reason = std::move(out.reason);
  report->radius = out.radius;
  report->via_characterization = out.via_characterization;
  report->characterization_computed = out.characterization_computed;
  report->total_wall_ms = 0.0;
  report->engines = std::move(out.engines);
  if (budget != nullptr) *budget = b;
  return true;
}

// --- VerdictStore ---------------------------------------------------------

VerdictStore::VerdictStore(std::string root) : root_(std::move(root)) {}

std::string VerdictStore::entry_dir(const TaskFingerprint& fp) const {
  return root_ + "/" + fp.hex_prefix(2) + "/" + fp.hex();
}

bool VerdictStore::write_file(const std::string& dir,
                              const std::string& filename,
                              const std::string& contents) const {
  try {
    fs::create_directories(dir);
    obs::atomic_write_file(dir + "/" + filename, contents);
    bytes_written_.fetch_add(contents.size(), std::memory_order_relaxed);
    static obs::Histogram& write_bytes =
        obs::MetricsRegistry::global().histogram("cache.store.write_bytes");
    write_bytes.record(contents.size());
    return true;
  } catch (...) {
    return false;
  }
}

namespace {

bool read_file(const std::string& path, std::string* out) {
  try {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!in && !in.eof()) return false;
    *out = std::move(buf).str();
    static obs::Histogram& read_bytes =
        obs::MetricsRegistry::global().histogram("cache.store.read_bytes");
    read_bytes.record(out->size());
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace

bool VerdictStore::load_verdict(const TaskFingerprint& fp,
                                const std::string& opt_digest,
                                PipelineReport* report) const {
  std::string raw;
  if (!read_file(entry_dir(fp) + "/verdict-" + opt_digest + ".rec", &raw)) {
    return false;
  }
  std::string body;
  if (!unwrap_record(raw, "verdict", &body)) return false;
  return parse_verdict_record(body, report);
}

bool VerdictStore::store_verdict(const TaskFingerprint& fp,
                                 const std::string& opt_digest,
                                 const PipelineReport& report,
                                 const VerdictRecordBudget& budget) const {
  const std::string wrapped =
      wrap_record("verdict", serialize_verdict_record(report, budget));
  return write_file(entry_dir(fp), "verdict-" + opt_digest + ".rec", wrapped);
}

std::vector<SiblingVerdict> VerdictStore::scan_siblings(
    const TaskFingerprint& fp) const {
  std::vector<SiblingVerdict> out;
  try {
    const fs::path dir = entry_dir(fp);
    std::vector<std::string> names;
    std::error_code ec;
    fs::directory_iterator it(dir, ec), end;
    for (; !ec && it != end; it.increment(ec)) {
      const std::string name = it->path().filename().string();
      // "verdict-" + 16 hex digest chars + ".rec"
      if (name.size() == 8 + 16 + 4 && name.rfind("verdict-", 0) == 0 &&
          name.compare(name.size() - 4, 4, ".rec") == 0) {
        names.push_back(name);
      }
    }
    // Digest order: the scan result (and hence warm-start selection) must
    // not depend on directory iteration order.
    std::sort(names.begin(), names.end());
    for (const std::string& name : names) {
      std::string raw, body;
      if (!read_file((dir / name).string(), &raw)) continue;
      if (!unwrap_record(raw, "verdict", &body)) continue;
      SiblingVerdict sibling;
      sibling.opt_digest = name.substr(8, 16);
      if (!parse_verdict_record(body, &sibling.report, &sibling.budget)) {
        continue;
      }
      out.push_back(std::move(sibling));
    }
  } catch (...) {
    // best-effort: whatever parsed so far
  }
  return out;
}

bool VerdictStore::store_artifact(const TaskFingerprint& fp,
                                  const std::string& name,
                                  const std::string& body) const {
  return write_file(entry_dir(fp), name + ".art", wrap_record(name, body));
}

bool VerdictStore::load_artifact(const TaskFingerprint& fp,
                                 const std::string& name,
                                 std::string* body) const {
  std::string raw;
  if (!read_file(entry_dir(fp) + "/" + name + ".art", &raw)) return false;
  return unwrap_record(raw, name, body);
}

namespace {

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Entry directories are exactly two levels below the root: <shard>/<fp>.
template <typename Fn>
void for_each_entry_dir(const std::string& root, Fn&& fn) {
  std::error_code ec;
  fs::directory_iterator shards(root, ec), end;
  for (; !ec && shards != end; shards.increment(ec)) {
    if (!shards->is_directory()) continue;
    std::error_code ec2;
    fs::directory_iterator entries(shards->path(), ec2), end2;
    for (; !ec2 && entries != end2; entries.increment(ec2)) {
      if (entries->is_directory()) fn(entries->path());
    }
  }
}

}  // namespace

VerdictStore::Stats VerdictStore::stats() const {
  Stats out;
  try {
    for_each_entry_dir(root_, [&out](const fs::path& entry) {
      ++out.entries;
      std::error_code ec;
      fs::directory_iterator files(entry, ec), end;
      for (; !ec && files != end; files.increment(ec)) {
        if (!files->is_regular_file()) continue;
        std::error_code size_ec;
        const std::uint64_t bytes = files->file_size(size_ec);
        if (size_ec) continue;
        const std::string name = files->path().filename().string();
        if (name.rfind("verdict-", 0) == 0 && ends_with(name, ".rec")) {
          ++out.verdict_records;
          out.verdict_bytes += bytes;
        } else if (ends_with(name, ".art")) {
          ++out.artifact_files;
          out.artifact_bytes += bytes;
        } else {
          ++out.other_files;
          out.other_bytes += bytes;
        }
      }
    });
  } catch (...) {
    // best-effort
  }
  return out;
}

VerdictStore::PruneResult VerdictStore::prune(std::uint64_t max_bytes) const {
  PruneResult out;
  try {
    struct Entry {
      fs::file_time_type newest;  // most recent write anywhere in the entry
      std::string path;
      std::uint64_t bytes = 0;
    };
    std::vector<Entry> entries;
    std::uint64_t total = 0;
    for_each_entry_dir(root_, [&entries, &total](const fs::path& dir) {
      Entry e;
      e.path = dir.string();
      e.newest = fs::file_time_type::min();
      std::error_code ec;
      fs::directory_iterator files(dir, ec), end;
      for (; !ec && files != end; files.increment(ec)) {
        if (!files->is_regular_file()) continue;
        std::error_code fec;
        const std::uint64_t bytes = files->file_size(fec);
        if (!fec) e.bytes += bytes;
        const fs::file_time_type t = files->last_write_time(fec);
        if (!fec && t > e.newest) e.newest = t;
      }
      total += e.bytes;
      entries.push_back(std::move(e));
    });
    // Oldest entries first; path as the deterministic tiebreak. Whole-entry
    // eviction keeps each surviving verdict next to its artifacts.
    std::sort(entries.begin(), entries.end(), [](const Entry& a,
                                                 const Entry& b) {
      return std::tie(a.newest, a.path) < std::tie(b.newest, b.path);
    });
    for (const Entry& e : entries) {
      if (total <= max_bytes) break;
      std::error_code ec;
      fs::remove_all(e.path, ec);
      if (ec) continue;
      // Drop the now-empty shard directory if this was its last entry.
      fs::remove(fs::path(e.path).parent_path(), ec);
      total -= e.bytes;
      ++out.evicted_entries;
      out.evicted_bytes += e.bytes;
    }
    out.remaining_bytes = total;
  } catch (...) {
    // best-effort
  }
  return out;
}

// --- artifact codecs ------------------------------------------------------

namespace {

/// Base-complex vertex ids of `task`'s input in canonical order, i.e. the
/// shared ordinal space isomorphic tasks serialize through.
std::vector<VertexId> canonical_input_vertices(
    const Task& task, const CanonicalLabeling& labeling) {
  std::vector<VertexId> verts = task.input.vertex_ids();
  std::sort(verts.begin(), verts.end(),
            [&labeling](VertexId a, VertexId b) {
              return labeling.index_of(a) < labeling.index_of(b);
            });
  return verts;
}

void render_ordinals(std::string& out, const std::vector<int>& xs) {
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(xs[i]);
  }
}

bool parse_ordinals(const std::string& s, std::size_t limit,
                    std::vector<int>* out) {
  out->clear();
  if (s.empty()) return false;
  int cur = 0;
  bool have = false;
  for (const char c : s) {
    if (c == ',') {
      if (!have) return false;
      out->push_back(cur);
      cur = 0;
      have = false;
      continue;
    }
    if (c < '0' || c > '9') return false;
    cur = cur * 10 + (c - '0');
    if (static_cast<std::size_t>(cur) >= limit + 1) return false;
    have = true;
  }
  if (!have) return false;
  out->push_back(cur);
  for (const int v : *out) {
    if (static_cast<std::size_t>(v) >= limit) return false;
  }
  return true;
}

std::vector<std::string> split_lines(const std::string& body) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < body.size()) {
    std::size_t end = body.find('\n', start);
    if (end == std::string::npos) end = body.size();
    lines.push_back(body.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

}  // namespace

std::string serialize_ladder_levels(
    const Task& task, const CanonicalLabeling& labeling,
    const std::vector<std::shared_ptr<const SubdividedComplex>>& levels) {
  const std::vector<VertexId> base = canonical_input_vertices(task, labeling);
  std::unordered_map<VertexId, int, VertexIdHash> base_ord;
  for (std::size_t i = 0; i < base.size(); ++i) {
    base_ord.emplace(base[i], static_cast<int>(i));
  }

  std::string out = "ladder-levels/2\n";
  out += "levels=" + std::to_string(levels.size()) + "\n";
  out += "base=" + std::to_string(base.size()) + "\n";

  // prev_ord: vertex -> ordinal at the previous level. Level 0 ordinals are
  // the canonical base indices; each serialized level defines the next.
  std::unordered_map<VertexId, int, VertexIdHash> prev_ord = base_ord;

  for (std::size_t r = 1; r < levels.size(); ++r) {
    const SubdividedComplex& level = *levels[r];
    // Decode each vertex's view (set of previous-level vertices) from its
    // interned value (view_of, topology/subdivision.h).
    struct Row {
      Color color;
      std::vector<int> view;     // prev-level ordinals, sorted
      std::vector<int> carrier;  // base ordinals, sorted
      VertexId id;
    };
    std::vector<Row> rows;
    for (VertexId v : level.complex.vertex_ids()) {
      Row row;
      row.id = v;
      row.color = task.pool->color(v);
      for (const VertexId w : view_of(*task.pool, v)) {
        row.view.push_back(prev_ord.at(w));
      }
      std::sort(row.view.begin(), row.view.end());
      for (VertexId w : level.carrier.at(v)) {
        row.carrier.push_back(base_ord.at(w));
      }
      std::sort(row.carrier.begin(), row.carrier.end());
      rows.push_back(std::move(row));
    }
    // Format v2: rows in the writer's intern order (ascending vertex id).
    // Loading re-interns row by row, so a same-task load reproduces the
    // cold build's pool ids exactly — the warm-start determinism contract.
    // The order is still content-determined for any reader: cold towers
    // intern in the canonical stamp order of subdivide_once.
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      return raw(a.id) < raw(b.id);
    });
    std::unordered_map<VertexId, int, VertexIdHash> this_ord;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      this_ord.emplace(rows[i].id, static_cast<int>(i));
    }
    out += "level=" + std::to_string(r) + " verts=" +
           std::to_string(rows.size()) + "\n";
    for (const Row& row : rows) {
      out += "v " + std::to_string(row.color) + " ";
      render_ordinals(out, row.view);
      out += " ";
      render_ordinals(out, row.carrier);
      out += "\n";
    }
    std::vector<std::vector<int>> facets;
    for (const Simplex& f : level.complex.facets()) {
      std::vector<int> row;
      for (VertexId v : f) row.push_back(this_ord.at(v));
      std::sort(row.begin(), row.end());
      facets.push_back(std::move(row));
    }
    std::sort(facets.begin(), facets.end());
    out += "facets=" + std::to_string(facets.size()) + "\n";
    for (const auto& f : facets) {
      out += "f ";
      render_ordinals(out, f);
      out += "\n";
    }
    prev_ord = std::move(this_ord);
  }
  return out;
}

std::size_t ladder_levels_count(const std::string& body) {
  const std::size_t nl1 = body.find('\n');
  if (nl1 == std::string::npos) return 0;
  if (body.substr(0, nl1) != "ladder-levels/2") return 0;
  std::size_t num_levels = 0;
  if (std::sscanf(body.c_str() + nl1 + 1, "levels=%zu", &num_levels) != 1) {
    return 0;
  }
  return num_levels;
}

bool load_ladder_levels(const Task& task, const CanonicalLabeling& labeling,
                        const std::string& body,
                        std::vector<SubdividedComplex>* out,
                        std::size_t max_levels) {
  try {
    const std::vector<std::string> lines = split_lines(body);
    std::size_t at = 0;
    const auto next = [&lines, &at]() -> const std::string* {
      return at < lines.size() ? &lines[at++] : nullptr;
    };
    const std::string* line = next();
    if (line == nullptr || *line != "ladder-levels/2") return false;
    line = next();
    std::size_t num_levels = 0;
    if (line == nullptr ||
        std::sscanf(line->c_str(), "levels=%zu", &num_levels) != 1) {
      return false;
    }
    const std::vector<VertexId> base =
        canonical_input_vertices(task, labeling);
    line = next();
    std::size_t base_count = 0;
    if (line == nullptr ||
        std::sscanf(line->c_str(), "base=%zu", &base_count) != 1 ||
        base_count != base.size()) {
      return false;
    }
    if (num_levels == 0 || num_levels > 16) return false;
    const std::size_t use_levels = std::min(num_levels, max_levels);
    if (use_levels == 0) return false;

    out->clear();
    out->push_back(identity_subdivision(task.input));
    const ViewInterner views(*task.pool);
    std::vector<VertexId> prev_ids = base;

    for (std::size_t r = 1; r < use_levels; ++r) {
      line = next();
      std::size_t level_no = 0, verts = 0;
      if (line == nullptr || std::sscanf(line->c_str(), "level=%zu verts=%zu",
                                         &level_no, &verts) != 2 ||
          level_no != r || verts == 0 || verts > 5'000'000) {
        return false;
      }
      std::vector<VertexId> ids;
      ids.reserve(verts);
      SubdividedComplex level;
      for (std::size_t i = 0; i < verts; ++i) {
        line = next();
        if (line == nullptr || line->size() < 2 || (*line)[0] != 'v' ||
            (*line)[1] != ' ') {
          return false;
        }
        // "v <color> <view ordinals> <carrier ordinals>"
        const std::string rest = line->substr(2);
        const std::size_t sp1 = rest.find(' ');
        if (sp1 == std::string::npos) return false;
        const std::size_t sp2 = rest.find(' ', sp1 + 1);
        if (sp2 == std::string::npos) return false;
        int color = 0;
        if (std::sscanf(rest.substr(0, sp1).c_str(), "%d", &color) != 1) {
          return false;
        }
        std::vector<int> view, carrier;
        if (!parse_ordinals(rest.substr(sp1 + 1, sp2 - sp1 - 1),
                            prev_ids.size(), &view) ||
            !parse_ordinals(rest.substr(sp2 + 1), base.size(), &carrier)) {
          return false;
        }
        std::vector<ValueId> members;
        members.reserve(view.size());
        for (const int ord : view) {
          members.push_back(
              views.member(prev_ids[static_cast<std::size_t>(ord)]));
        }
        const VertexId id =
            views.vertex(static_cast<Color>(color), std::move(members));
        ids.push_back(id);
        std::vector<VertexId> carrier_verts;
        carrier_verts.reserve(carrier.size());
        for (const int ord : carrier) {
          carrier_verts.push_back(base[static_cast<std::size_t>(ord)]);
        }
        level.carrier[id] = Simplex(std::move(carrier_verts));
      }
      line = next();
      std::size_t facets = 0;
      if (line == nullptr ||
          std::sscanf(line->c_str(), "facets=%zu", &facets) != 1 ||
          facets == 0 || facets > 50'000'000) {
        return false;
      }
      CompiledComplex::Builder builder;
      for (std::size_t f = 0; f < facets; ++f) {
        line = next();
        if (line == nullptr || line->size() < 2 || (*line)[0] != 'f' ||
            (*line)[1] != ' ') {
          return false;
        }
        std::vector<int> ords;
        if (!parse_ordinals(line->substr(2), ids.size(), &ords)) return false;
        std::vector<VertexId> fv;
        fv.reserve(ords.size());
        for (const int ord : ords) {
          fv.push_back(ids[static_cast<std::size_t>(ord)]);
        }
        const Simplex facet(std::move(fv));
        builder.add(facet);
        level.complex.add(facet);
      }
      level.compiled = builder.finish();
#ifndef NDEBUG
      level.compiled->debug_verify_against(level.complex);
#endif
      out->push_back(std::move(level));
      prev_ids = std::move(ids);
    }
    if (use_levels < num_levels) return true;  // deeper tail left unread
    return at == lines.size() ||
           (at == lines.size() - 1 && lines.back().empty());
  } catch (...) {
    return false;
  }
}

std::string serialize_delta_images(const Task& task,
                                   const CanonicalLabeling& labeling) {
  const auto idx = [&labeling](const Simplex& s) {
    std::vector<int> out;
    out.reserve(s.size());
    for (VertexId v : s) out.push_back(labeling.index_of(v));
    std::sort(out.begin(), out.end());
    return out;
  };
  std::vector<std::pair<std::vector<int>, std::vector<std::vector<int>>>>
      rows;
  for (const Simplex& sigma : task.delta.domain()) {
    std::vector<std::vector<int>> images;
    for (const Simplex& tau : task.delta.facet_images(sigma)) {
      images.push_back(idx(tau));
    }
    std::sort(images.begin(), images.end());
    rows.emplace_back(idx(sigma), std::move(images));
  }
  std::sort(rows.begin(), rows.end());
  std::string out = "delta-images/1\n";
  out += "rows=" + std::to_string(rows.size()) + "\n";
  for (const auto& [src, images] : rows) {
    out += "d ";
    render_ordinals(out, src);
    out += " >";
    for (const auto& img : images) {
      out += " ";
      render_ordinals(out, img);
    }
    out += "\n";
  }
  return out;
}

bool load_delta_images(
    [[maybe_unused]] const Task& task, const CanonicalLabeling& labeling,
    const std::string& body,
    std::vector<std::pair<Simplex, std::vector<Simplex>>>* out) {
  try {
    // Canonical index -> this task's vertex id, over input ∪ output.
    const std::vector<VertexId>& order = labeling.order;
    const std::vector<std::string> lines = split_lines(body);
    if (lines.empty() || lines[0] != "delta-images/1") return false;
    std::size_t rows = 0;
    if (lines.size() < 2 ||
        std::sscanf(lines[1].c_str(), "rows=%zu", &rows) != 1) {
      return false;
    }
    out->clear();
    std::size_t at = 2;
    const auto to_simplex = [&order](const std::string& s,
                                     Simplex* simplex) -> bool {
      std::vector<int> ords;
      if (!parse_ordinals(s, order.size(), &ords)) return false;
      std::vector<VertexId> verts;
      verts.reserve(ords.size());
      for (const int ord : ords) {
        verts.push_back(order[static_cast<std::size_t>(ord)]);
      }
      *simplex = Simplex(std::move(verts));
      return true;
    };
    for (std::size_t i = 0; i < rows; ++i) {
      if (at >= lines.size()) return false;
      const std::string& line = lines[at++];
      if (line.size() < 2 || line[0] != 'd' || line[1] != ' ') return false;
      const std::size_t sep = line.find(" >");
      if (sep == std::string::npos) return false;
      Simplex src;
      if (!to_simplex(line.substr(2, sep - 2), &src)) return false;
      std::vector<Simplex> images;
      std::size_t pos = sep + 2;
      while (pos < line.size()) {
        if (line[pos] != ' ') return false;
        ++pos;
        std::size_t end = line.find(' ', pos);
        if (end == std::string::npos) end = line.size();
        Simplex img;
        if (!to_simplex(line.substr(pos, end - pos), &img)) return false;
        images.push_back(std::move(img));
        pos = end;
      }
      if (images.empty()) return false;
      out->emplace_back(std::move(src), std::move(images));
    }
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace trichroma::io
