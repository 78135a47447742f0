#pragma once
// Low-overhead tracing: per-thread event buffers with RAII spans, exported
// as Chrome trace-event (catapult) JSON — load the file in chrome://tracing
// or https://ui.perfetto.dev to see where a run spends its time across the
// executor, the decision-map searches, the pipeline lanes and the topology
// substrate.
//
// Cost model. Tracing is disabled by default and every instrumentation site
// guards on ONE relaxed-ish atomic load: a TRI_SPAN with tracing off is a
// load plus a branch (no clock read, no name formatting, no allocation), so
// instrumented hot paths stay within noise of uninstrumented ones
// (bench/bench_obs.cpp pins < 2%). With tracing on, a span costs two clock
// reads and two fixed-size event writes into a thread-local buffer.
//
// Buffering. Each thread owns a single-producer buffer of fixed-size
// events; only the owning thread writes, and the exporter reads up to the
// atomically published size (release/acquire on `size`), so collection is
// data-race-free without locks on the hot path. Spans RESERVE their two
// slots (begin + end) at open and write both at close — begin with the
// recorded start timestamp, end with the close timestamp — which guarantees
// that every 'B' event in a buffer has its matching 'E': a span that does
// not fit drops whole, bumping the dropped counter, never half. Buffers are
// bounded (default 65536 events/thread) and never wrap; a full buffer drops
// new events and reports the count in the exported JSON's "otherData".
//
// Sessions. trace_start() resets all buffers and bumps a global generation;
// events recorded under an older generation are never exported, and a span
// closing across a restart discards itself. Start/stop/export must not
// overlap instrumented work in flight (the CLI traces around one whole
// command; tests quiesce the executor between sessions).
//
// Determinism boundary. Tracing output is pure observability: nothing read
// from these buffers feeds back into any solver decision, and the
// deterministic report fields (io/report.h) never include trace data.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace trichroma::obs {

namespace trace_detail {

extern std::atomic<bool> g_enabled;

struct ThreadBuffer;

/// Owner-thread handle for one open span: the buffer with two reserved
/// slots, the start timestamp, and the session generation at open.
struct SpanHandle {
  ThreadBuffer* buffer = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t generation = 0;
};

bool open_span(SpanHandle& handle);
void close_span(const SpanHandle& handle, const char* name);
void close_span(const SpanHandle& handle, const char* prefix, const char* suffix);
void close_span(const SpanHandle& handle, const char* prefix, long long n);

}  // namespace trace_detail

/// True while a trace session is collecting. One acquire load; every
/// instrumentation site keys off this.
inline bool trace_enabled() {
  return trace_detail::g_enabled.load(std::memory_order_acquire);
}

/// Starts a fresh session: clears every thread buffer, re-arms collection.
/// New threads allocate buffers of `per_thread_capacity` events; existing
/// buffers are resized to it. Must not overlap instrumented work in flight.
void trace_start(std::size_t per_thread_capacity = std::size_t{1} << 16);

/// Stops collection. Buffered events stay available for export until the
/// next trace_start.
void trace_stop();

/// Chrome trace-event JSON of everything collected this session, one
/// "traceEvents" array across all threads plus a trailing instant event
/// carrying the metrics-registry snapshot.
std::string trace_to_json();

/// trace_to_json written to `path` (throws std::runtime_error on failure).
void trace_write(const std::string& path);

/// Events dropped this session because a thread buffer was full.
std::uint64_t trace_dropped();

/// Point event ('i' phase) on the calling thread's timeline.
void trace_instant(const char* name);
void trace_instant(const char* prefix, const char* suffix);

/// Counter sample ('C' phase): a named value Perfetto renders as a track.
void trace_counter(const char* name, double value);

/// RAII span: records a 'B'/'E' pair around its scope. Composed names
/// ("engine/" + name, "probe/r=" + 2) are formatted only when tracing is
/// enabled, at close.
class Span {
 public:
  explicit Span(const char* name) : name_(name) {
    if (trace_enabled()) active_ = trace_detail::open_span(handle_);
  }
  Span(const char* prefix, const char* suffix) : name_(prefix), suffix_(suffix) {
    if (trace_enabled()) active_ = trace_detail::open_span(handle_);
  }
  Span(const char* prefix, long long n)
      : name_(prefix), number_(n), has_number_(true) {
    if (trace_enabled()) active_ = trace_detail::open_span(handle_);
  }
  ~Span() {
    if (!active_) return;
    if (has_number_) {
      trace_detail::close_span(handle_, name_, number_);
    } else if (suffix_ != nullptr) {
      trace_detail::close_span(handle_, name_, suffix_);
    } else {
      trace_detail::close_span(handle_, name_);
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  trace_detail::SpanHandle handle_;
  const char* name_;
  const char* suffix_ = nullptr;
  long long number_ = 0;
  bool has_number_ = false;
  bool active_ = false;
};

#define TRI_SPAN_CONCAT_INNER(a, b) a##b
#define TRI_SPAN_CONCAT(a, b) TRI_SPAN_CONCAT_INNER(a, b)
/// Scoped span; accepts the Span constructor forms:
///   TRI_SPAN("map_search/build_csp");
///   TRI_SPAN("engine/", engine_name);
///   TRI_SPAN("probe/r=", static_cast<long long>(r));
#define TRI_SPAN(...) \
  ::trichroma::obs::Span TRI_SPAN_CONCAT(tri_span_, __COUNTER__)(__VA_ARGS__)

}  // namespace trichroma::obs
