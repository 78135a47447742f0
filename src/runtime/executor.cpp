#include "runtime/executor.h"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace trichroma {

namespace {

/// Lock-free max: lifts `value` into `slot` if it is a new high-water mark.
void raise_max(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
  std::uint64_t seen = slot.load(std::memory_order_relaxed);
  while (seen < value &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

namespace exec_detail {

// Shared state of one JobGroup. Kept alive by the handle, by tickets in
// flight, and by the parent's child list (pruned when the handle dies), so
// a stale ticket can never dangle. The invariants:
//   * `queue` holds submitted-but-unstarted closures (FIFO).
//   * `outstanding` counts this group's AND every descendant group's
//     queued+running tasks; it is incremented along the whole ancestor
//     chain at submit and decremented along it at completion.
//   * `epoch` bumps (under `mutex`) on every subtree event a waiter could
//     care about — new task, task finished — and `cv` is notified, so
//     wait() can sleep without missing work it should help with.
// Core mutexes are never held two at a time (ancestor walks lock one link
// per step), which rules out lock-order inversions by construction.
struct GroupCore {
  explicit GroupCore(Executor& ex) : executor(&ex) {}

  Executor* executor;
  std::shared_ptr<GroupCore> parent;  // null for roots

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::function<void()>> queue;
  std::vector<std::shared_ptr<GroupCore>> children;
  std::size_t outstanding = 0;  // subtree tasks queued or running
  std::uint64_t epoch = 0;
  std::exception_ptr first_error;
  bool error_reported = false;

  CancellationToken token;

  /// Bumps the event epoch of this core and every ancestor, waking waiters.
  static void signal_chain(GroupCore* core) {
    for (GroupCore* c = core; c != nullptr; c = c->parent.get()) {
      std::lock_guard<std::mutex> lock(c->mutex);
      ++c->epoch;
      c->cv.notify_all();
    }
  }

  static void add_outstanding(GroupCore* core) {
    for (GroupCore* c = core; c != nullptr; c = c->parent.get()) {
      std::lock_guard<std::mutex> lock(c->mutex);
      ++c->outstanding;
      ++c->epoch;
      c->cv.notify_all();
    }
  }

  static void finish_one(GroupCore* core) {
    for (GroupCore* c = core; c != nullptr; c = c->parent.get()) {
      std::lock_guard<std::mutex> lock(c->mutex);
      assert(c->outstanding > 0);
      --c->outstanding;
      ++c->epoch;
      c->cv.notify_all();
    }
  }

  /// Pops one queued task from this group or (depth-first) any descendant.
  /// Returns the owning core alongside the closure so completion is charged
  /// to the right group.
  static bool pop_subtree(const std::shared_ptr<GroupCore>& core,
                          std::shared_ptr<GroupCore>* from,
                          std::function<void()>* fn) {
    std::vector<std::shared_ptr<GroupCore>> kids;
    {
      std::lock_guard<std::mutex> lock(core->mutex);
      if (!core->queue.empty()) {
        *fn = std::move(core->queue.front());
        core->queue.pop_front();
        *from = core;
        return true;
      }
      kids = core->children;
    }
    for (const auto& kid : kids) {
      if (pop_subtree(kid, from, fn)) return true;
    }
    return false;
  }

  /// Runs one popped task: skipped outright when the group is cancelled,
  /// otherwise executed with the first exception captured (which also
  /// cancels the rest of the group — its siblings would only burn budget).
  static void run_task(const std::shared_ptr<GroupCore>& core,
                       std::function<void()> fn) {
    if (!core->token.stop_requested()) {
      // Spans the job body whether a pool worker won the ticket or a
      // helping waiter drained it inline — both are job executions. The
      // latency histogram covers the same extent (pool jobs are chunky —
      // whole batch task loops — so two clock reads per job stay far
      // inside the obs overhead contract; see bench_obs).
      TRI_SPAN("executor/job");
      static obs::Histogram& latency =
          obs::MetricsRegistry::global().histogram("executor.job_latency_ns");
      const auto job_start = std::chrono::steady_clock::now();
      try {
        fn();
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(core->mutex);
          if (core->first_error == nullptr) {
            core->first_error = std::current_exception();
          }
        }
        core->token.request_stop();
      }
      latency.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - job_start)
              .count()));
    }
    finish_one(core.get());
  }

  /// Pops the task addressed by a ticket (this group only; workers don't
  /// recurse — descendants post their own tickets). Returns whether a
  /// closure was actually popped (false = stale ticket: a helper beat us).
  /// Split from execution so the caller can count the job BEFORE it runs —
  /// running it first would let wait() observe completion (finish_one)
  /// ahead of the counter update.
  static bool pop_ticket(const std::shared_ptr<GroupCore>& core,
                         std::function<void()>& fn) {
    std::lock_guard<std::mutex> lock(core->mutex);
    if (core->queue.empty()) return false;
    fn = std::move(core->queue.front());
    core->queue.pop_front();
    return true;
  }

  void cancel_tree() {
    token.request_stop();
    std::vector<std::shared_ptr<GroupCore>> kids;
    {
      std::lock_guard<std::mutex> lock(mutex);
      kids = children;
    }
    for (const auto& kid : kids) kid->cancel_tree();
  }

  /// Blocks until the subtree is drained, helping with queued work.
  void wait_all(const std::shared_ptr<GroupCore>& self) {
    assert(self.get() == this);
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (outstanding == 0) return;
      }
      std::shared_ptr<GroupCore> from;
      std::function<void()> fn;
      if (pop_subtree(self, &from, &fn)) {
        executor->help_runs_.fetch_add(1, std::memory_order_relaxed);
        run_task(from, std::move(fn));
        continue;
      }
      // Nothing to help with: every subtree task is running elsewhere.
      // Sleep until the next subtree event (completion or new work).
      std::unique_lock<std::mutex> lock(mutex);
      if (outstanding == 0) return;
      const std::uint64_t seen = epoch;
      cv.wait(lock, [&] { return epoch != seen; });
    }
  }
};

struct WorkerSlot {
  std::mutex mutex;
  std::deque<Executor::Ticket> deque;
  std::thread thread;
};

namespace {
struct TlsBinding {
  Executor* owner = nullptr;
  int index = -1;
};
thread_local TlsBinding tls_binding;
}  // namespace

}  // namespace exec_detail

using exec_detail::GroupCore;
using exec_detail::WorkerSlot;

// ---------------------------------------------------------------------------
// JobGroup
// ---------------------------------------------------------------------------

JobGroup::JobGroup(Executor& executor, JobGroup* parent)
    : core_(std::make_shared<GroupCore>(executor)) {
  if (parent != nullptr) {
    assert(&executor == parent->core_->executor);
    core_->parent = parent->core_;
    {
      std::lock_guard<std::mutex> lock(parent->core_->mutex);
      parent->core_->children.push_back(core_);
    }
    if (parent->core_->token.stop_requested()) core_->token.request_stop();
  }
}

JobGroup::~JobGroup() {
  core_->wait_all(core_);
  if (core_->parent != nullptr) {
    std::lock_guard<std::mutex> lock(core_->parent->mutex);
    auto& siblings = core_->parent->children;
    for (auto it = siblings.begin(); it != siblings.end(); ++it) {
      if (it->get() == core_.get()) {
        siblings.erase(it);
        break;
      }
    }
  }
}

void JobGroup::submit(std::function<void()> fn) {
  if (core_->token.stop_requested()) return;
  {
    std::lock_guard<std::mutex> lock(core_->mutex);
    core_->queue.push_back(std::move(fn));
  }
  GroupCore::add_outstanding(core_.get());
  core_->executor->post_ticket(core_);
}

void JobGroup::wait() {
  core_->wait_all(core_);
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(core_->mutex);
    if (!core_->error_reported && core_->first_error != nullptr) {
      core_->error_reported = true;
      err = core_->first_error;
    }
  }
  if (err != nullptr) std::rethrow_exception(err);
}

void JobGroup::cancel() { core_->cancel_tree(); }

bool JobGroup::cancelled() const { return core_->token.stop_requested(); }

CancellationToken& JobGroup::token() { return core_->token; }

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

Executor::Executor(int workers) {
  slots_.reserve(kMaxWorkers);
  for (int i = 0; i < kMaxWorkers; ++i) {
    slots_.push_back(std::make_unique<WorkerSlot>());
  }
  ensure_workers(workers);
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    stopping_ = true;
    sleep_cv_.notify_all();
  }
  const int spawned = spawned_.load();
  for (int i = 0; i < spawned; ++i) {
    if (slots_[static_cast<std::size_t>(i)]->thread.joinable()) {
      slots_[static_cast<std::size_t>(i)]->thread.join();
    }
  }
}

Executor& Executor::global() {
  // Leaked on purpose: worker threads must not be joined from static
  // destructors (tasks could still reference other statics).
  static Executor* instance = new Executor(0);
  return *instance;
}

void Executor::ensure_workers(int n) {
  if (n > kMaxWorkers) n = kMaxWorkers;
  if (n <= spawned_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(pool_mutex_);
  int spawned = spawned_.load(std::memory_order_relaxed);
  while (spawned < n) {
    slots_[static_cast<std::size_t>(spawned)]->thread =
        std::thread([this, spawned] { worker_loop(spawned); });
    ++spawned;
    spawned_.store(spawned, std::memory_order_release);
  }
}

int Executor::workers_spawned() const {
  return spawned_.load(std::memory_order_acquire);
}

int Executor::current_worker_index() const {
  const exec_detail::TlsBinding& tls = exec_detail::tls_binding;
  return tls.owner == this ? tls.index : -1;
}

ExecutorStats Executor::stats() const {
  ExecutorStats s;
  s.jobs_run = jobs_run_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.injections = injections_.load(std::memory_order_relaxed);
  s.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  s.help_runs = help_runs_.load(std::memory_order_relaxed);
  return s;
}

void Executor::reset_stats() {
  jobs_run_.store(0, std::memory_order_relaxed);
  steals_.store(0, std::memory_order_relaxed);
  injections_.store(0, std::memory_order_relaxed);
  max_queue_depth_.store(0, std::memory_order_relaxed);
  help_runs_.store(0, std::memory_order_relaxed);
}

void Executor::post_ticket(Ticket core) {
  const int self = current_worker_index();
  std::size_t depth = 0;
  if (self >= 0) {
    WorkerSlot& slot = *slots_[static_cast<std::size_t>(self)];
    std::lock_guard<std::mutex> lock(slot.mutex);
    slot.deque.push_back(std::move(core));
    depth = slot.deque.size();
  } else if (spawned_.load(std::memory_order_acquire) > 0) {
    {
      std::lock_guard<std::mutex> lock(inject_mutex_);
      inject_.push_back(std::move(core));
      depth = inject_.size();
    }
    injections_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& injected =
        obs::MetricsRegistry::global().counter("executor.injections");
    injected.add();
  } else {
    // No workers: nobody would ever drain a ticket, and the submitting
    // thread's wait() pops straight from the group queue. Drop it.
    return;
  }
  raise_max(max_queue_depth_, depth);
  // Point-in-time depth of whichever queue took the ticket; last write wins,
  // which is the right semantics for a sampled gauge.
  static obs::Gauge& queue_depth =
      obs::MetricsRegistry::global().gauge("executor.queue_depth");
  queue_depth.set(static_cast<std::int64_t>(depth));
  if (obs::trace_enabled()) {
    char name[32];
    if (self >= 0) {
      std::snprintf(name, sizeof(name), "executor/queue/w%d", self);
    } else {
      std::snprintf(name, sizeof(name), "executor/queue/inject");
    }
    obs::trace_counter(name, static_cast<double>(depth));
  }
  std::lock_guard<std::mutex> lock(sleep_mutex_);
  ++work_version_;
  sleep_cv_.notify_all();
}

Executor::Ticket Executor::next_ticket(int self) {
  WorkerSlot& own = *slots_[static_cast<std::size_t>(self)];
  {
    // Own deque: back (LIFO — the task most recently queued here).
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.deque.empty()) {
      Ticket t = std::move(own.deque.back());
      own.deque.pop_back();
      return t;
    }
  }
  {
    // Injection deque: front (FIFO across external submitters).
    std::lock_guard<std::mutex> lock(inject_mutex_);
    if (!inject_.empty()) {
      Ticket t = std::move(inject_.front());
      inject_.pop_front();
      return t;
    }
  }
  // Steal: front of the other workers' deques, round-robin from self+1.
  const int spawned = spawned_.load(std::memory_order_acquire);
  for (int d = 1; d < spawned; ++d) {
    const int victim = (self + d) % spawned;
    WorkerSlot& slot = *slots_[static_cast<std::size_t>(victim)];
    bool stolen = false;
    Ticket t;
    {
      std::lock_guard<std::mutex> lock(slot.mutex);
      if (!slot.deque.empty()) {
        t = std::move(slot.deque.front());
        slot.deque.pop_front();
        stolen = true;
      }
    }
    if (stolen) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter& steals =
          obs::MetricsRegistry::global().counter("executor.steals");
      steals.add();
      obs::trace_instant("executor/steal");
      return t;
    }
  }
  return nullptr;
}

void Executor::worker_loop(int index) {
  exec_detail::tls_binding = {this, index};
  static obs::Counter& jobs =
      obs::MetricsRegistry::global().counter("executor.jobs_run");
  const auto run = [&](const Ticket& t) {
    std::function<void()> fn;
    if (GroupCore::pop_ticket(t, fn)) {
      // Counted at pop, not completion: the pop precedes this job's
      // finish_one under the group mutex, so every counted job is visible
      // to a waiter by the time wait() unblocks.
      jobs_run_.fetch_add(1, std::memory_order_relaxed);
      jobs.add();
      GroupCore::run_task(t, std::move(fn));
    }
  };
  for (;;) {
    if (Ticket t = next_ticket(index)) {
      run(t);
      continue;
    }
    std::uint64_t seen;
    {
      std::lock_guard<std::mutex> lock(sleep_mutex_);
      if (stopping_) return;
      seen = work_version_;
    }
    // Re-scan after recording the version: a ticket posted in between bumps
    // the version, so the wait below cannot miss it.
    if (Ticket t = next_ticket(index)) {
      run(t);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    sleep_cv_.wait(lock, [&] { return stopping_ || work_version_ != seen; });
    if (stopping_) return;
  }
}

}  // namespace trichroma
