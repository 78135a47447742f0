#include "obs/trace_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace trichroma::obs {

namespace {

/// One parsed trace event (the fields the analytics need).
struct Event {
  std::string name;
  char phase = '?';
  double ts_us = 0.0;
  std::uint32_t tid = 0;
  std::string args;  // raw text of the args object, braces stripped
};

/// A completed span.
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  std::uint32_t tid = 0;
  double dur_us() const { return end_us - start_us; }
};

/// Extracts the string value of `"key": "..."` inside `obj`, or "" when the
/// key is absent. Handles the exporter's escaping (\\, \", \uXXXX left
/// verbatim — names are compared byte-wise, which is stable either way).
std::string find_string(const std::string& obj, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  std::size_t pos = obj.find(needle);
  if (pos == std::string::npos) return "";
  pos += needle.size();
  while (pos < obj.size() && obj[pos] == ' ') ++pos;
  if (pos >= obj.size() || obj[pos] != '"') return "";
  ++pos;
  std::string out;
  while (pos < obj.size() && obj[pos] != '"') {
    if (obj[pos] == '\\' && pos + 1 < obj.size()) {
      out.push_back(obj[pos + 1]);
      pos += 2;
    } else {
      out.push_back(obj[pos]);
      ++pos;
    }
  }
  return out;
}

/// Extracts the numeric value of `"key": <number>` inside `obj`; `fallback`
/// when absent or non-numeric.
double find_number(const std::string& obj, const char* key, double fallback) {
  const std::string needle = std::string("\"") + key + "\":";
  std::size_t pos = obj.find(needle);
  if (pos == std::string::npos) return fallback;
  pos += needle.size();
  while (pos < obj.size() && obj[pos] == ' ') ++pos;
  const char* start = obj.c_str() + pos;
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  return end == start ? fallback : v;
}

/// The raw text between the braces of `"key": { ... }`, or "" when absent.
/// Good enough for the exporter's flat args objects (no nested braces).
std::string find_object(const std::string& obj, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  std::size_t pos = obj.find(needle);
  if (pos == std::string::npos) return "";
  pos = obj.find('{', pos + needle.size());
  if (pos == std::string::npos) return "";
  const std::size_t close = obj.find('}', pos);
  if (close == std::string::npos) return "";
  return obj.substr(pos + 1, close - pos - 1);
}

/// Splits the "traceEvents" array into per-event object substrings. The
/// events themselves may contain one nested object ("args"), so a brace
/// depth counter — with string-literal skipping — finds the boundaries.
std::vector<std::string> split_events(const std::string& json) {
  const std::size_t arr = json.find("\"traceEvents\"");
  if (arr == std::string::npos)
    throw std::runtime_error("trace-stats: no \"traceEvents\" array in input");
  std::size_t pos = json.find('[', arr);
  if (pos == std::string::npos)
    throw std::runtime_error("trace-stats: malformed traceEvents array");
  std::vector<std::string> out;
  int depth = 0;
  std::size_t start = 0;
  bool in_string = false;
  for (std::size_t i = pos + 1; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth++ == 0) start = i;
    } else if (c == '}') {
      if (--depth == 0) out.push_back(json.substr(start, i - start + 1));
    } else if (c == ']' && depth == 0) {
      return out;
    }
  }
  return out;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  // Nearest-rank: the smallest value with at least p of the mass at or
  // below it. Deterministic, no interpolation.
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

void append_line(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
  out += '\n';
}

}  // namespace

TraceStats analyze_trace(const std::string& trace_json) {
  TraceStats stats;
  const std::vector<std::string> raw = split_events(trace_json);

  std::vector<Event> events;
  events.reserve(raw.size());
  for (const std::string& obj : raw) {
    Event e;
    e.name = find_string(obj, "name");
    const std::string ph = find_string(obj, "ph");
    e.phase = ph.empty() ? '?' : ph[0];
    e.ts_us = find_number(obj, "ts", 0.0);
    e.tid = static_cast<std::uint32_t>(find_number(obj, "tid", 0.0));
    e.args = find_object(obj, "args");
    events.push_back(std::move(e));
  }
  stats.events = events.size();

  // Pair B/E per tid. Fast path: our exporter writes E immediately after
  // its B in the same tid stream. Fallback: a per-tid stack of open names,
  // for traces from other producers where nesting is in timestamp order.
  std::vector<Span> spans;
  std::map<std::uint32_t, std::vector<std::size_t>> open;  // tid -> event idx stack
  double first_us = 0.0, last_us = 0.0;
  bool any_ts = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (e.phase == 'B' || e.phase == 'E' || e.phase == 'i' || e.phase == 'C' ||
        e.phase == 'X') {
      if (!any_ts) {
        first_us = last_us = e.ts_us;
        any_ts = true;
      } else {
        first_us = std::min(first_us, e.ts_us);
        last_us = std::max(last_us, e.ts_us);
      }
    }
    if (e.phase == 'B') {
      open[e.tid].push_back(i);
    } else if (e.phase == 'E') {
      auto& stack = open[e.tid];
      // Prefer the innermost open span with a matching name (tolerates
      // producers that emit unmatched Es).
      for (std::size_t s = stack.size(); s-- > 0;) {
        const Event& b = events[stack[s]];
        if (b.name == e.name) {
          spans.push_back(Span{b.name, b.ts_us, e.ts_us, e.tid});
          stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(s));
          break;
        }
      }
    } else if (e.phase == 'X') {
      // Complete events (other producers): ts + dur.
      const double dur = find_number(raw[i], "dur", 0.0);
      spans.push_back(Span{e.name, e.ts_us, e.ts_us + dur, e.tid});
      if (e.ts_us + dur > last_us) last_us = e.ts_us + dur;
    } else if (e.phase == 'i' && e.name == "metrics" && !e.args.empty()) {
      // The exporter's trailing registry snapshot: "name": value pairs.
      std::size_t pos = 0;
      while ((pos = e.args.find('"', pos)) != std::string::npos) {
        const std::size_t close = e.args.find('"', pos + 1);
        if (close == std::string::npos) break;
        const std::string key = e.args.substr(pos + 1, close - pos - 1);
        const std::size_t colon = e.args.find(':', close);
        if (colon == std::string::npos) break;
        stats.counters[key] = static_cast<std::uint64_t>(
            std::strtoull(e.args.c_str() + colon + 1, nullptr, 10));
        pos = e.args.find(',', colon);
        if (pos == std::string::npos) break;
      }
    }
  }
  stats.spans_paired = spans.size();
  stats.wall_ms = any_ts ? (last_us - first_us) / 1000.0 : 0.0;

  // Per-name aggregates.
  std::map<std::string, std::vector<double>> durations;  // ms, per name
  for (const Span& s : spans) durations[s.name].push_back(s.dur_us() / 1000.0);
  for (auto& [name, ds] : durations) {
    std::sort(ds.begin(), ds.end());
    SpanAggregate agg;
    agg.name = name;
    agg.count = ds.size();
    for (double d : ds) agg.total_ms += d;
    agg.p50_ms = percentile(ds, 0.50);
    agg.p99_ms = percentile(ds, 0.99);
    agg.max_ms = ds.back();
    stats.spans.push_back(std::move(agg));
  }
  std::sort(stats.spans.begin(), stats.spans.end(),
            [](const SpanAggregate& a, const SpanAggregate& b) {
              if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
              return a.name < b.name;
            });

  // Critical path of the slowest pipeline run: starting from that run's
  // interval, repeatedly descend into the longest span strictly contained
  // in the current one (any tid — spans from every thread are candidates).
  std::size_t current = spans.size();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != "pipeline/run") continue;
    if (current == spans.size() || spans[i].dur_us() > spans[current].dur_us())
      current = i;
  }
  std::vector<char> used(spans.size(), 0);
  while (current != spans.size()) {
    used[current] = 1;
    const Span& cur = spans[current];
    stats.critical_path.push_back(
        CriticalPathStep{cur.name, cur.start_us / 1000.0, cur.dur_us() / 1000.0});
    std::size_t best = spans.size();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (used[i]) continue;
      const Span& s = spans[i];
      if (s.start_us < cur.start_us || s.end_us > cur.end_us) continue;
      if (s.dur_us() >= cur.dur_us()) continue;  // identical-interval twin, not a child
      if (best == spans.size() || s.dur_us() > spans[best].dur_us()) best = i;
    }
    current = best;
  }

  // Per-thread batch-worker utilization over the trace's wall extent.
  std::map<std::uint32_t, WorkerUtilization> workers;
  for (const Span& s : spans) {
    if (s.name != "batch/worker") continue;
    WorkerUtilization& w = workers[s.tid];
    w.tid = s.tid;
    w.spans += 1;
    w.busy_ms += s.dur_us() / 1000.0;
  }
  for (auto& [tid, w] : workers) {
    w.utilization = stats.wall_ms > 0.0 ? w.busy_ms / stats.wall_ms : 0.0;
    stats.workers.push_back(w);
  }
  return stats;
}

std::string format_trace_stats(const TraceStats& stats) {
  std::string out;
  append_line(out, "trace: %llu events, %llu spans, %.3f ms wall",
              static_cast<unsigned long long>(stats.events),
              static_cast<unsigned long long>(stats.spans_paired), stats.wall_ms);
  out += '\n';
  append_line(out, "%-36s %8s %12s %10s %10s %10s", "span", "count", "total_ms",
              "p50_ms", "p99_ms", "max_ms");
  for (const SpanAggregate& s : stats.spans) {
    append_line(out, "%-36s %8llu %12.3f %10.3f %10.3f %10.3f", s.name.c_str(),
                static_cast<unsigned long long>(s.count), s.total_ms, s.p50_ms,
                s.p99_ms, s.max_ms);
  }
  if (!stats.critical_path.empty()) {
    out += '\n';
    append_line(out, "critical path (slowest pipeline/run, %.3f ms):",
                stats.critical_path.front().dur_ms);
    const double run_ms = stats.critical_path.front().dur_ms;
    for (const CriticalPathStep& step : stats.critical_path) {
      append_line(out, "  %-34s %10.3f ms  %5.1f%%", step.name.c_str(),
                  step.dur_ms, run_ms > 0.0 ? 100.0 * step.dur_ms / run_ms : 0.0);
    }
  }
  if (!stats.workers.empty()) {
    out += '\n';
    append_line(out, "batch workers:");
    append_line(out, "  %-6s %8s %12s %12s", "tid", "spans", "busy_ms", "util");
    for (const WorkerUtilization& w : stats.workers) {
      append_line(out, "  %-6u %8llu %12.3f %11.1f%%", w.tid,
                  static_cast<unsigned long long>(w.spans), w.busy_ms,
                  100.0 * w.utilization);
    }
  }
  if (!stats.counters.empty()) {
    out += '\n';
    append_line(out, "registry counters embedded in trace: %llu",
                static_cast<unsigned long long>(stats.counters.size()));
  }
  return out;
}

}  // namespace trichroma::obs
