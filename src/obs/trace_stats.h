#pragma once
// Trace analytics: turn a recorded Chrome trace (obs/trace.h's
// trace_to_json output, or any trace in the same flat one-object-per-event
// shape) into answers — per-span-name aggregates, the critical path of the
// slowest pipeline run, and per-thread batch-worker utilization. Backs the
// `trichroma trace-stats` subcommand.
//
// The analyzer exploits an exporter invariant: spans write both their 'B'
// and 'E' slots at close time, so within one tid's event stream every 'B'
// is immediately followed by its matching 'E' (spans drop whole, never
// half). A per-tid name-matching stack backstops traces from other
// producers. The trailing "metrics" instant (the registry snapshot the
// exporter embeds) is parsed into `counters`, so one file supports
// span-count vs. counter cross-checks — e.g. `pipeline/run` spans must
// equal the `pipeline.runs` counter on a fully captured trace.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace trichroma::obs {

/// Aggregate over every completed span with one name.
struct SpanAggregate {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double p50_ms = 0.0;  ///< nearest-rank percentiles over span durations
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// One link of the slowest pipeline run's critical path: the longest span
/// strictly contained in its parent's interval, recursively.
struct CriticalPathStep {
  std::string name;
  double start_ms = 0.0;  ///< relative to the trace epoch
  double dur_ms = 0.0;
};

/// Batch-thread busy time: the summed `batch/worker` span durations of one
/// tid over the trace's wall-clock extent (one span per batch phase).
struct WorkerUtilization {
  std::uint32_t tid = 0;
  std::uint64_t spans = 0;
  double busy_ms = 0.0;
  double utilization = 0.0;  ///< busy_ms / wall_ms, in [0, 1] give or take clock skew
};

struct TraceStats {
  std::uint64_t events = 0;        ///< trace events parsed (all phases)
  std::uint64_t spans_paired = 0;  ///< completed B/E pairs
  double wall_ms = 0.0;            ///< last timestamp minus first
  std::vector<SpanAggregate> spans;  ///< sorted by total_ms descending
  /// Critical path of the slowest "pipeline/run" span (empty when the trace
  /// has none): the run itself first, then its longest contained span, then
  /// that span's longest contained span, and so on across all tids.
  std::vector<CriticalPathStep> critical_path;
  std::vector<WorkerUtilization> workers;  ///< tids with batch/worker spans
  /// The embedded registry snapshot ("metrics" instant args), when present.
  std::map<std::string, std::uint64_t> counters;
};

/// Parses `trace_json` (Chrome trace-event JSON with a "traceEvents" array)
/// and computes the aggregates above. Throws std::runtime_error when the
/// document has no parseable traceEvents array.
TraceStats analyze_trace(const std::string& trace_json);

/// Human-readable rendering of the stats (the trace-stats subcommand body).
std::string format_trace_stats(const TraceStats& stats);

}  // namespace trichroma::obs
