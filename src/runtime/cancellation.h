#pragma once
// Cooperative cancellation: the one-way flag shared by the executor's job
// groups and the solver's analysis engines. A scheduler trips the flag; the
// executor checks it at task pickup, and AnalysisEngine::run checks it once
// before an engine starts. Lives in runtime/ because every executor job
// group owns one; solver/engine.h re-exports it.

#include <atomic>

namespace trichroma {

class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  void request_stop() { stop_.store(true, std::memory_order_relaxed); }
  bool stop_requested() const { return stop_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> stop_{false};
};

}  // namespace trichroma
