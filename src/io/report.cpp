#include "io/report.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace trichroma::io {

namespace {

std::string quote(const std::string& s) { return "\"" + json_escape(s) + "\""; }

std::string num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  return buf;
}

std::string bool_str(bool b) { return b ? "true" : "false"; }

std::string u64_array_inline(const std::vector<std::uint64_t>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ");
    out += std::to_string(values[i]);
  }
  out += "]";
  return out;
}

// Single-line rendering of a count-valued histogram (trimmed base-2
// buckets, see obs::Histogram::bucket_index). One line so diff noise from a
// distribution change stays one line per histogram.
std::string hist_inline(std::uint64_t count, std::uint64_t sum,
                        const std::vector<std::uint64_t>& buckets) {
  return "{ \"count\": " + std::to_string(count) +
         ", \"sum\": " + std::to_string(sum) +
         ", \"buckets\": " + u64_array_inline(buckets) + " }";
}

// Tiny builder so the emitter stays declarative: fields are appended in
// order, commas and indentation handled in one place.
class Builder {
 public:
  std::string finish() && { return std::move(out_); }

  void open(const std::string& key, char bracket) {
    begin_value(key);
    out_ += bracket;
    out_ += '\n';
    ++depth_;
    first_ = true;
  }
  void close(char bracket) {
    --depth_;
    if (first_) {
      // Nothing was emitted: collapse to "{}" / "[]" on the opening line.
      out_.pop_back();
    } else {
      out_ += '\n';
      indent();
    }
    out_ += bracket;
    first_ = false;
  }
  void field(const std::string& key, const std::string& rendered) {
    begin_value(key);
    out_ += rendered;
  }

 private:
  void begin_value(const std::string& key) {
    if (!first_) out_ += ",\n";
    first_ = false;
    indent();
    if (!key.empty()) out_ += quote(key) + ": ";
  }
  void indent() { out_.append(static_cast<std::size_t>(depth_) * 2, ' '); }

  std::string out_;
  int depth_ = 0;
  bool first_ = true;
};

void emit_engine(Builder& b, const EngineReport& e,
                 const ReportJsonOptions& options) {
  b.open("", '{');
  b.field("name", quote(e.name));
  b.field("side", quote(to_string(e.side)));
  b.field("status", quote(to_string(e.status)));
  b.field("precedence", std::to_string(e.precedence));
  b.field("verdict", e.status == EngineStatus::Conclusive
                         ? quote(to_string(e.verdict))
                         : "null");
  b.field("reason", quote(e.reason));
  b.field("detail", quote(e.detail));
  b.field("radius_reached", std::to_string(e.radius_reached));
  b.field("witness_radius", std::to_string(e.witness_radius));
  b.field("nodes_explored", std::to_string(e.nodes_explored));
  b.open("image_cache", '{');
  b.field("hits", std::to_string(e.image_cache_hits));
  b.field("misses", std::to_string(e.image_cache_misses));
  b.close('}');
  b.open("edge_masks", '{');
  b.field("hits", std::to_string(e.edge_mask_hits));
  b.field("misses", std::to_string(e.edge_mask_misses));
  b.close('}');
  b.open("capped", '[');
  for (const std::string& c : e.capped) b.field("", quote(c));
  b.close(']');
  b.open("domain_overflow", '[');
  for (const std::string& c : e.overflowed) b.field("", quote(c));
  b.close(']');
  // v9: deterministic probe distributions. domain_sizes is the base-2
  // bucketed distribution of CSP candidate-domain sizes over every rung
  // this engine searched; level_facets[r] is the top-dimensional facet
  // count of Ch^r for each ladder level it climbed. Both are pure
  // functions of the task under the "exact"/"ladder" schedules.
  b.field("domain_sizes", hist_inline(e.domain_size_count, e.domain_size_sum,
                                      e.domain_size_hist));
  b.field("level_facets", u64_array_inline(e.level_facets));
  b.field("wall_ms", num(options.redact_timings ? 0.0 : e.wall_ms));
  b.close('}');
}

}  // namespace

// v7: the "cache" field gained the "artifacts" value (warm start from a
// stored sibling record or ladder/Δ-image artifacts) and the metrics cache
// line gained "seeded_levels". The grep contract below is unchanged.
// v8: metrics gained the "ladder" sub-object (parallel-build telemetry).
// v9: per-run attribution. Engines gained the deterministic "domain_sizes"
// histogram and "level_facets" ladder profile; a top-level "run" object
// carries the phase latency breakdown (zeroed under redact_timings), the
// cache tier + seeded levels (on a `"cache":` line, see the grep contract),
// and deterministic rollups of the new per-engine distributions.
// v10: metrics lost the "executor" and "ladder" sub-objects (a decide no
// longer runs anything they measured).
const char* report_schema() { return "trichroma.pipeline-report/10"; }

std::string to_json(const PipelineReport& report,
                    const ReportJsonOptions& options) {
  Builder b;
  b.open("", '{');
  b.field("schema", quote(report_schema()));

  b.open("task", '{');
  b.field("name", quote(report.task_name));
  b.field("num_processes", std::to_string(report.num_processes));
  b.field("input_facets", std::to_string(report.input_facets));
  b.field("output_facets", std::to_string(report.output_facets));
  b.close('}');

  b.open("options", '{');
  b.field("max_radius", std::to_string(report.options.max_radius));
  b.field("node_cap", std::to_string(report.options.node_cap));
  b.field("use_characterization",
          bool_str(report.options.use_characterization));
  b.field("reuse_subdivisions", bool_str(report.options.reuse_subdivisions));
  b.field("reuse_images", bool_str(report.options.reuse_images));
  b.close('}');

  // Schema v3 dropped the options' thread fields (the worker count only
  // created spurious diffs between otherwise identical runs) and added the
  // resolved schedule.
  b.field("schedule", quote(report.schedule));
  // Schema v6: the verdict-store outcome. Deliberately a single line (as is
  // the metrics "cache" rollup below) so byte-comparisons between warm and
  // cold runs can filter every cache-dependent field with one
  // `grep -v '"cache":'` — no other report key contains that token
  // ("image_cache" renders as `"image_cache":`, which does not match).
  b.field("cache", quote(report.cache));
  b.field("verdict", quote(to_string(report.verdict)));
  b.field("reason", quote(report.reason));
  b.field("radius", std::to_string(report.radius));
  b.field("via_characterization", bool_str(report.via_characterization));
  // Explicit marker: consumers dispatching on "computed" never have to
  // treat a missing or null field as meaningful.
  b.field("characterization", quote(report.characterization_computed
                                        ? "computed"
                                        : "not-computed"));
  b.field("total_wall_ms",
          num(options.redact_timings ? 0.0 : report.total_wall_ms));

  // Schema v9 "run": per-run attribution. "phases" is wall-clock (zeroed
  // under redact_timings, phases a run never entered stay 0); "cache" is
  // tier + seeded levels on a single `"cache":` line (grep contract, see
  // the top-level field); the rollups are sums/concatenations of the
  // deterministic per-engine distributions, byte-identical at every
  // --jobs value.
  b.open("run", '{');
  b.open("phases", '{');
  b.field("consult_ms",
          num(options.redact_timings ? 0.0 : report.phase_consult_ms));
  b.field("engines_ms",
          num(options.redact_timings ? 0.0 : report.phase_engines_ms));
  b.field("publish_ms",
          num(options.redact_timings ? 0.0 : report.phase_publish_ms));
  b.close('}');
  b.field("cache", "{ \"tier\": " + quote(report.cache) +
                       ", \"seeded_levels\": " +
                       std::to_string(report.cache_seeded_levels) + " }");
  std::uint64_t ds_count = 0, ds_sum = 0;
  std::vector<std::uint64_t> ds_buckets;
  const std::vector<std::uint64_t>* ladder_levels = nullptr;
  for (const EngineReport& e : report.engines) {
    ds_count += e.domain_size_count;
    ds_sum += e.domain_size_sum;
    if (e.domain_size_hist.size() > ds_buckets.size()) {
      ds_buckets.resize(e.domain_size_hist.size(), 0);
    }
    for (std::size_t i = 0; i < e.domain_size_hist.size(); ++i) {
      ds_buckets[i] += e.domain_size_hist[i];
    }
    // First engine in canonical order that climbed the ladder (the
    // chromatic probe under the standard schedules).
    if (ladder_levels == nullptr && !e.level_facets.empty()) {
      ladder_levels = &e.level_facets;
    }
  }
  b.field("domain_sizes", hist_inline(ds_count, ds_sum, ds_buckets));
  b.field("ladder_levels",
          u64_array_inline(ladder_levels ? *ladder_levels
                                         : std::vector<std::uint64_t>{}));
  b.close('}');

  // Schema v4 "metrics": rollups computed here from the per-engine fields —
  // sums of deterministic quantities.
  std::size_t nodes_total = 0, img_hits = 0, img_misses = 0;
  std::size_t mask_hits = 0, mask_misses = 0;
  for (const EngineReport& e : report.engines) {
    nodes_total += e.nodes_explored;
    img_hits += e.image_cache_hits;
    img_misses += e.image_cache_misses;
    mask_hits += e.edge_mask_hits;
    mask_misses += e.edge_mask_misses;
  }
  b.open("metrics", '{');
  b.field("nodes_explored_total", std::to_string(nodes_total));
  b.open("image_cache", '{');
  b.field("hits", std::to_string(img_hits));
  b.field("misses", std::to_string(img_misses));
  b.close('}');
  b.open("edge_masks", '{');
  b.field("hits", std::to_string(mask_hits));
  b.field("misses", std::to_string(mask_misses));
  b.close('}');
  // One line by construction (see the top-level "cache" field).
  b.field("cache", "{ \"hits\": " + std::to_string(report.cache_hits) +
                       ", \"misses\": " + std::to_string(report.cache_misses) +
                       ", \"seeded_levels\": " +
                       std::to_string(report.cache_seeded_levels) +
                       ", \"store_bytes\": " +
                       std::to_string(report.cache_store_bytes) + " }");
  b.close('}');

  b.open("engines", '[');
  for (const EngineReport& e : report.engines) emit_engine(b, e, options);
  b.close(']');

  b.close('}');
  std::string out = std::move(b).finish();
  out += '\n';
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char raw : s) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (raw) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += raw;
        }
    }
  }
  return out;
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("cannot open for writing: " + path);
  }
  out << content;
  if (!out) {
    throw std::runtime_error("write failed: " + path);
  }
}

}  // namespace trichroma::io
