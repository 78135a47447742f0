#include "obs/heartbeat.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include <filesystem>

#ifndef _WIN32
#include <unistd.h>
#endif

namespace trichroma::obs {

namespace fs = std::filesystem;

void atomic_write_file(const std::string& path, const std::string& content) {
  // Sibling temp name: rename(2) is only atomic within a filesystem, so the
  // staging file must live next to the target. The per-process sequence
  // keeps concurrent writers (heartbeat thread + final flush on the main
  // thread, or a forked child) from clobbering each other's staging files.
  static std::atomic<std::uint64_t> seq{0};
  const fs::path target(path);
  const fs::path dir = target.has_parent_path() ? target.parent_path() : fs::path(".");
#ifndef _WIN32
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  const fs::path tmp =
      dir / (".tmp-" + std::to_string(pid) + "-" +
             std::to_string(seq.fetch_add(1, std::memory_order_relaxed)) + "-" +
             target.filename().string());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("atomic_write_file: cannot open " + tmp.string());
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) {
      std::error_code ignored;
      fs::remove(tmp, ignored);
      throw std::runtime_error("atomic_write_file: short write to " + tmp.string());
    }
  }
  std::error_code ec;
  fs::rename(tmp, target, ec);
  if (ec) {
    std::error_code ignored;
    fs::remove(tmp, ignored);
    throw std::runtime_error("atomic_write_file: rename to " + path + " failed: " +
                             ec.message());
  }
}

std::uint64_t resident_set_bytes() {
#if defined(__linux__)
  // /proc/self/statm: size resident shared text lib data dt, in pages.
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0, resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) return 0;
  const long page = ::sysconf(_SC_PAGESIZE);
  return resident_pages * static_cast<std::uint64_t>(page > 0 ? page : 4096);
#else
  return 0;
#endif
}

PeriodicSnapshotWriter::PeriodicSnapshotWriter(std::string path, double interval_s,
                                               std::function<std::string()> body)
    : path_(std::move(path)),
      interval_(std::chrono::nanoseconds(
          std::max<std::int64_t>(1'000'000,  // 1ms floor: 0 would spin
                                 static_cast<std::int64_t>(interval_s * 1e9)))),
      body_(std::move(body)) {
  thread_ = std::thread([this] { loop(); });
}

PeriodicSnapshotWriter::~PeriodicSnapshotWriter() { stop(); }

void PeriodicSnapshotWriter::write_now() {
  atomic_write_file(path_, body_());
  writes_.fetch_add(1, std::memory_order_relaxed);
}

void PeriodicSnapshotWriter::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopping_ = true;
    stopped_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Final flush so a finished run's file reflects its end state. Failures
  // are swallowed: monitoring must never take down the monitored run.
  try {
    write_now();
  } catch (const std::exception&) {
  }
}

void PeriodicSnapshotWriter::loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (cv_.wait_for(lock, interval_, [this] { return stopping_; })) return;
    lock.unlock();
    try {
      write_now();
    } catch (const std::exception&) {
      // Transient I/O failure (full disk, vanished directory): keep ticking.
    }
    lock.lock();
  }
}

std::string render_heartbeat(std::uint64_t seq, std::uint64_t uptime_ms,
                             const HeartbeatProgress& progress,
                             const MetricsRegistry& registry) {
  std::string out = "{\n  \"schema\": \"trichroma.heartbeat/1\",\n";
  out += "  \"seq\": " + std::to_string(seq) + ",\n";
  out += "  \"uptime_ms\": " + std::to_string(uptime_ms) + ",\n";
  out += "  \"rss_bytes\": " + std::to_string(resident_set_bytes()) + ",\n";
  out += "  \"progress\": { \"done\": " + std::to_string(progress.done) +
         ", \"total\": " + std::to_string(progress.total) + " },\n";
  // Inline the registry document, re-indented two spaces; it already ends
  // with "}\n", so the heartbeat's closing brace lands on its own line.
  out += "  \"metrics\": ";
  const std::string metrics = registry.to_json();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out.push_back(metrics[i]);
    if (metrics[i] == '\n' && i + 1 < metrics.size()) out += "  ";
  }
  out += "}\n";
  return out;
}

HeartbeatWriter::HeartbeatWriter(std::string path, double interval_s,
                                 std::function<HeartbeatProgress()> progress,
                                 const MetricsRegistry& registry)
    : start_(std::chrono::steady_clock::now()),
      writer_(std::move(path), interval_s,
              [this, progress = std::move(progress), &registry] {
                const auto uptime = std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - start_);
                return render_heartbeat(
                    seq_.fetch_add(1, std::memory_order_relaxed) + 1,
                    static_cast<std::uint64_t>(uptime.count()),
                    progress ? progress() : HeartbeatProgress{}, registry);
              }) {}

}  // namespace trichroma::obs
