#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"

namespace trichroma::obs {

namespace trace_detail {

std::atomic<bool> g_enabled{false};

namespace {
constexpr std::size_t kNameCap = 48;
}  // namespace

/// One fixed-size trace record. Names are copied (truncated to kNameCap-1)
/// so dynamically composed span names need no allocation or lifetime.
struct TraceEvent {
  char name[kNameCap];
  std::uint64_t ts_ns = 0;
  double value = 0.0;  // 'C' events only
  char phase = '?';    // 'B', 'E', 'C', 'i'
};

/// Single-producer event buffer: only the owning thread writes; the
/// exporter reads events below the released `size`. Never wraps — a full
/// buffer drops (whole spans at a time, see open_span) and counts.
struct ThreadBuffer {
  ThreadBuffer(std::size_t capacity, std::uint32_t tid)
      : events(capacity), tid(tid) {}

  std::vector<TraceEvent> events;
  std::atomic<std::size_t> size{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> generation{0};
  std::size_t reserved = 0;  // owner thread only: slots promised to open spans
  std::uint32_t tid;
};

namespace {

struct BufferRegistry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::atomic<std::uint64_t> generation{1};
  std::atomic<std::uint64_t> epoch_ns{0};
  std::size_t capacity = std::size_t{1} << 16;
  std::uint32_t next_tid = 1;
};

BufferRegistry& registry() {
  // Leaked on purpose: a span closing during static destruction must never
  // see a destroyed registry.
  static BufferRegistry* instance = new BufferRegistry;
  return *instance;
}

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ThreadBuffer* local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> tls;
  if (tls == nullptr) {
    BufferRegistry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    tls = std::make_shared<ThreadBuffer>(reg.capacity, reg.next_tid++);
    reg.buffers.push_back(tls);
  }
  return tls.get();
}

/// Owner-side session check: a buffer last written under an older
/// generation starts this session empty. Owner thread only.
void refresh(ThreadBuffer* buffer) {
  const std::uint64_t gen =
      registry().generation.load(std::memory_order_acquire);
  if (buffer->generation.load(std::memory_order_relaxed) == gen) return;
  buffer->size.store(0, std::memory_order_relaxed);
  buffer->dropped.store(0, std::memory_order_relaxed);
  buffer->reserved = 0;
  buffer->generation.store(gen, std::memory_order_release);
}

/// Appends one event and publishes it (release on size pairs with the
/// exporter's acquire). Caller guarantees capacity.
void write_event(ThreadBuffer* buffer, char phase, const char* name,
                 std::uint64_t ts_ns, double value) {
  const std::size_t i = buffer->size.load(std::memory_order_relaxed);
  TraceEvent& e = buffer->events[i];
  std::snprintf(e.name, kNameCap, "%s", name);
  e.ts_ns = ts_ns;
  e.value = value;
  e.phase = phase;
  buffer->size.store(i + 1, std::memory_order_release);
}

/// Single-slot point event ('i'/'C'); drops when full.
void write_point(char phase, const char* name, double value) {
  ThreadBuffer* buffer = local_buffer();
  refresh(buffer);
  if (buffer->size.load(std::memory_order_relaxed) + buffer->reserved + 1 >
      buffer->events.size()) {
    buffer->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  write_event(buffer, phase, name, steady_now_ns(), value);
}

std::string escape_name(const char* name) {
  std::string out;
  for (const char* p = name; *p != '\0'; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    if (*p == '"' || *p == '\\') {
      out += '\\';
      out += *p;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += *p;
    }
  }
  return out;
}

}  // namespace

bool open_span(SpanHandle& handle) {
  ThreadBuffer* buffer = local_buffer();
  refresh(buffer);
  // Reserve both slots up front: the close is then guaranteed to record the
  // matching 'E' for every recorded 'B' (spans drop whole, never half).
  if (buffer->size.load(std::memory_order_relaxed) + buffer->reserved + 2 >
      buffer->events.size()) {
    buffer->dropped.fetch_add(2, std::memory_order_relaxed);
    return false;
  }
  buffer->reserved += 2;
  handle.buffer = buffer;
  handle.generation = buffer->generation.load(std::memory_order_relaxed);
  handle.start_ns = steady_now_ns();
  return true;
}

namespace {

void close_with_name(const SpanHandle& handle, const char* name) {
  ThreadBuffer* buffer = handle.buffer;
  if (buffer->generation.load(std::memory_order_relaxed) !=
      handle.generation) {
    // The session restarted while this span was open; its begin slot is
    // gone with the old generation, so recording the pair would orphan it.
    return;
  }
  if (buffer->reserved >= 2) buffer->reserved -= 2;
  write_event(buffer, 'B', name, handle.start_ns, 0.0);
  write_event(buffer, 'E', name, steady_now_ns(), 0.0);
}

}  // namespace

void close_span(const SpanHandle& handle, const char* name) {
  close_with_name(handle, name);
}

void close_span(const SpanHandle& handle, const char* prefix,
                const char* suffix) {
  char buf[kNameCap];
  std::snprintf(buf, sizeof(buf), "%s%s", prefix, suffix);
  close_with_name(handle, buf);
}

void close_span(const SpanHandle& handle, const char* prefix, long long n) {
  char buf[kNameCap];
  std::snprintf(buf, sizeof(buf), "%s%lld", prefix, n);
  close_with_name(handle, buf);
}

}  // namespace trace_detail

using trace_detail::ThreadBuffer;
using trace_detail::TraceEvent;

void trace_start(std::size_t per_thread_capacity) {
  trace_detail::BufferRegistry& reg = trace_detail::registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.capacity = per_thread_capacity == 0 ? 1 : per_thread_capacity;
  // Batch threads live for one run_batch call; once one has exited, the
  // registry holds its buffer's last reference and nothing can write to it
  // again, so drop it instead of resizing it.
  std::erase_if(reg.buffers, [](const std::shared_ptr<ThreadBuffer>& buffer) {
    return buffer.use_count() == 1;
  });
  for (const std::shared_ptr<ThreadBuffer>& buffer : reg.buffers) {
    // Safe only because sessions never overlap instrumented work in flight
    // (see trace.h): owners observe the resize through the generation bump.
    buffer->events.assign(reg.capacity, TraceEvent{});
    buffer->size.store(0, std::memory_order_relaxed);
    buffer->dropped.store(0, std::memory_order_relaxed);
  }
  reg.epoch_ns.store(trace_detail::steady_now_ns(), std::memory_order_relaxed);
  reg.generation.fetch_add(1, std::memory_order_release);
  trace_detail::g_enabled.store(true, std::memory_order_release);
}

void trace_stop() {
  trace_detail::g_enabled.store(false, std::memory_order_release);
}

std::uint64_t trace_dropped() {
  trace_detail::BufferRegistry& reg = trace_detail::registry();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    buffers = reg.buffers;
  }
  const std::uint64_t gen = reg.generation.load(std::memory_order_acquire);
  std::uint64_t total = 0;
  for (const std::shared_ptr<ThreadBuffer>& buffer : buffers) {
    if (buffer->generation.load(std::memory_order_acquire) != gen) continue;
    total += buffer->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::string trace_to_json() {
  trace_detail::BufferRegistry& reg = trace_detail::registry();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    buffers = reg.buffers;
  }
  const std::uint64_t gen = reg.generation.load(std::memory_order_acquire);
  const std::uint64_t epoch = reg.epoch_ns.load(std::memory_order_relaxed);

  auto ts_us = [epoch](std::uint64_t ts_ns) {
    return ts_ns >= epoch ? static_cast<double>(ts_ns - epoch) / 1000.0 : 0.0;
  };

  std::string events;
  std::uint64_t dropped_total = 0;
  std::uint64_t last_ts_ns = epoch;
  bool first = true;
  char line[256];
  for (const std::shared_ptr<ThreadBuffer>& buffer : buffers) {
    if (buffer->generation.load(std::memory_order_acquire) != gen) continue;
    dropped_total += buffer->dropped.load(std::memory_order_relaxed);
    const std::size_t n = buffer->size.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      const TraceEvent& e = buffer->events[i];
      if (e.ts_ns > last_ts_ns) last_ts_ns = e.ts_ns;
      const std::string name = trace_detail::escape_name(e.name);
      switch (e.phase) {
        case 'C':
          std::snprintf(line, sizeof(line),
                        "    {\"name\": \"%s\", \"cat\": \"trichroma\", "
                        "\"ph\": \"C\", \"ts\": %.3f, \"pid\": 1, \"tid\": %u, "
                        "\"args\": {\"value\": %.3f}}",
                        name.c_str(), ts_us(e.ts_ns), buffer->tid, e.value);
          break;
        case 'i':
          std::snprintf(line, sizeof(line),
                        "    {\"name\": \"%s\", \"cat\": \"trichroma\", "
                        "\"ph\": \"i\", \"ts\": %.3f, \"pid\": 1, \"tid\": %u, "
                        "\"s\": \"t\"}",
                        name.c_str(), ts_us(e.ts_ns), buffer->tid);
          break;
        default:  // 'B' / 'E'
          std::snprintf(line, sizeof(line),
                        "    {\"name\": \"%s\", \"cat\": \"trichroma\", "
                        "\"ph\": \"%c\", \"ts\": %.3f, \"pid\": 1, \"tid\": %u}",
                        name.c_str(), e.phase, ts_us(e.ts_ns), buffer->tid);
      }
      events += first ? "\n" : ",\n";
      first = false;
      events += line;
    }
  }

  // Trailing metadata instant: the metrics-registry snapshot, so one file
  // carries both the timeline and the counter totals behind it.
  std::string metrics_args;
  for (const auto& [name, value] : MetricsRegistry::global().snapshot()) {
    if (!metrics_args.empty()) metrics_args += ", ";
    metrics_args +=
        "\"" + trace_detail::escape_name(name.c_str()) + "\": " + std::to_string(value);
  }
  std::snprintf(line, sizeof(line),
                "    {\"name\": \"metrics\", \"cat\": \"trichroma\", "
                "\"ph\": \"i\", \"ts\": %.3f, \"pid\": 1, \"tid\": 0, "
                "\"s\": \"g\", \"args\": {",
                ts_us(last_ts_ns));
  events += first ? "\n" : ",\n";
  events += line;
  events += metrics_args + "}}";

  std::string out = "{\n  \"displayTimeUnit\": \"ms\",\n";
  out += "  \"otherData\": {\"dropped_events\": \"" +
         std::to_string(dropped_total) + "\"},\n";
  out += "  \"traceEvents\": [" + events + "\n  ]\n}\n";
  return out;
}

void trace_write(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out << trace_to_json();
  if (!out) throw std::runtime_error("write failed: " + path);
}

void trace_instant(const char* name) {
  if (!trace_enabled()) return;
  trace_detail::write_point('i', name, 0.0);
}

void trace_instant(const char* prefix, const char* suffix) {
  if (!trace_enabled()) return;
  char buf[trace_detail::kNameCap];
  std::snprintf(buf, sizeof(buf), "%s%s", prefix, suffix);
  trace_detail::write_point('i', buf, 0.0);
}

void trace_counter(const char* name, double value) {
  if (!trace_enabled()) return;
  trace_detail::write_point('C', name, value);
}

}  // namespace trichroma::obs
