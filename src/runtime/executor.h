#pragma once
// The shared work-stealing executor: one persistent worker pool behind the
// batch driver's whole-task jobs (`run_batch`, `trichroma batch --jobs`).
// A decide is single-threaded; the pool is never touched inside one.
//
// Job model. Work is submitted through a JobGroup — a hierarchical handle
// that owns a queue of closures, a CancellationToken, and the first
// exception any of its tasks threw. `wait()` blocks until every task of the
// group (and of its child groups) finished, *helping* while it waits: a
// blocked waiter pops and runs tasks from its own subtree, so nesting
// groups on a small pool (or on no pool at all) can never deadlock —
// zero-worker executors simply run everything inline in wait(). `cancel()`
// trips the group's token, propagates to child groups, and makes
// queued-but-unstarted tasks complete as no-ops; running tasks are expected
// to poll `token()` cooperatively.
//
// Stealing layout. Each worker owns a deque of *tickets* in the Chase–Lev
// access pattern — the owner pushes and pops at the back (LIFO, keeps the
// working set hot), thieves and the injection path take from the front
// (FIFO, steals the oldest = usually largest work). A ticket is only a
// reference to a group ("this group has a task for you"): the closures
// themselves live in the group's own FIFO queue, so a stale ticket — its
// task already executed by a helping waiter or another thief — pops
// nothing and is dropped. The indirection is what makes help-while-waiting
// safe: waiters never touch the deques, only group queues, and tickets
// never dangle (they hold shared_ptrs to the group core). Submissions from
// non-worker threads go to a global injection deque that every worker
// checks between steals.
//
// Nested groups, cancellation and help-while-waiting are general, but the
// only caller today is run_batch's flat fan-out (one root group per phase,
// cancelled only when a task throws).
//
// Determinism. The executor itself promises nothing about ordering; the
// batch driver's determinism contract is enforced a layer up (independent
// tasks, catalog-order output), which is exactly what makes stealing safe
// to use underneath.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/cancellation.h"

namespace trichroma {

class Executor;

/// Scheduling-telemetry snapshot (Executor::stats). Values are cumulative
/// since construction or the last reset_stats(). Pure observability: none
/// of these feed back into scheduling, and all are nondeterministic across
/// runs.
struct ExecutorStats {
  std::uint64_t jobs_run = 0;    ///< tickets that executed a queued closure
  std::uint64_t steals = 0;      ///< tickets taken from another worker's deque
  std::uint64_t injections = 0;  ///< tickets routed via the injection deque
  std::uint64_t max_queue_depth = 0;  ///< high-water mark of any one deque
  /// Tasks drained inline by a blocked wait() (help-while-waiting) instead
  /// of by a pool worker's ticket. Disjoint from jobs_run.
  std::uint64_t help_runs = 0;
};

namespace exec_detail {
struct GroupCore;
struct WorkerSlot;
}  // namespace exec_detail

/// Hierarchical handle for a batch of related tasks. Not thread-safe as a
/// handle (submit/wait/cancel from the owning thread); the tasks themselves
/// run anywhere.
class JobGroup {
 public:
  /// A root group on `executor`, or a child of `parent` (cancel propagates
  /// parent → child; wait on the parent covers the child's tasks). A child
  /// of an already-cancelled parent starts cancelled.
  explicit JobGroup(Executor& executor, JobGroup* parent = nullptr);
  /// Waits for outstanding tasks (exceptions are swallowed here — call
  /// wait() yourself to observe them) and detaches from the parent.
  ~JobGroup();

  JobGroup(const JobGroup&) = delete;
  JobGroup& operator=(const JobGroup&) = delete;

  /// Enqueues a task. If the group is already cancelled the task is dropped
  /// (it still counts as "submitted then skipped", not an error).
  void submit(std::function<void()> fn);

  /// Blocks until every task submitted to this group and its descendants
  /// has finished, running queued subtree tasks inline while blocked.
  /// Rethrows the first exception captured from a task (once).
  void wait();

  /// Requests cooperative stop: trips the token here and in every child
  /// group, and turns queued-but-unstarted tasks into no-ops.
  void cancel();

  bool cancelled() const;
  CancellationToken& token();

 private:
  std::shared_ptr<exec_detail::GroupCore> core_;
};

/// The pool. One process-wide instance (global()) serves the batch driver;
/// tests construct private ones. Workers are started lazily via
/// ensure_workers and live until destruction — repeated submissions reuse
/// them, which is the point (no per-call spawn/join).
class Executor {
 public:
  /// Starts with `workers` threads (0 = none; wait() then runs everything
  /// inline on the calling thread).
  explicit Executor(int workers = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The process-wide pool used by the batch driver.
  static Executor& global();

  /// Grows the pool so at least `n` workers exist (clamped to kMaxWorkers;
  /// never shrinks). Cheap when already satisfied.
  void ensure_workers(int n);
  int workers_spawned() const;

  /// Index of the calling worker thread in THIS executor, or -1.
  int current_worker_index() const;

  /// Cumulative scheduling telemetry. Reads while work is in flight are
  /// fine (each field is individually atomic); for exact values quiesce
  /// first (wait() on every group).
  ExecutorStats stats() const;
  /// Zeroes the telemetry — call between batches to scope stats to one run.
  void reset_stats();

  static constexpr int kMaxWorkers = 64;

 private:
  friend class JobGroup;
  friend struct exec_detail::GroupCore;
  friend struct exec_detail::WorkerSlot;

  using Ticket = std::shared_ptr<exec_detail::GroupCore>;

  /// Routes a ticket for one queued task: the submitting worker's own deque
  /// (back) or the injection deque, then wakes a sleeper.
  void post_ticket(Ticket core);
  Ticket next_ticket(int self);
  void worker_loop(int index);

  mutable std::mutex pool_mutex_;  // guards spawning
  std::vector<std::unique_ptr<exec_detail::WorkerSlot>> slots_;
  std::atomic<int> spawned_{0};

  // Telemetry (relaxed; bumped at ticket granularity, where a mutex has
  // just been taken anyway — see stats()).
  std::atomic<std::uint64_t> jobs_run_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> injections_{0};
  std::atomic<std::uint64_t> max_queue_depth_{0};
  std::atomic<std::uint64_t> help_runs_{0};

  std::mutex inject_mutex_;
  std::deque<Ticket> inject_;

  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::uint64_t work_version_ = 0;  // guarded by sleep_mutex_
  bool stopping_ = false;           // guarded by sleep_mutex_
};

}  // namespace trichroma
