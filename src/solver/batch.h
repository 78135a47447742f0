#pragma once
// The parallel batch driver: run the whole zoo catalog (or a named subset)
// through the solvability pipeline, `jobs` tasks at a time, on the shared
// work-stealing executor.
//
// Concurrency model. The driver submits `jobs - 1` task-loop jobs to the
// executor and runs one loop itself (the caller is always a worker), so at
// most `jobs` whole-task pipelines are in flight at once. This is the only
// parallelism in the solver: each pipeline is single-threaded and
// self-contained — every task is built fresh inside its loop iteration, so
// it owns its vertex pool, and each engine run owns its SubdivisionLadder
// and DeltaImageCache.
//
// Determinism. A pipeline's report is a pure function of the task and
// budget except for wall-clock timings, and tasks are independent, so every
// other field of every report is identical for any `jobs` value. Results
// come back in catalog order. Rendering the reports with
// ReportJsonOptions::redact_timings therefore yields byte-identical files
// no matter how the batch was scheduled; that is the contract the batch
// determinism test and the CI smoke pin.
//
// Verdict store. With solve.cache_dir set, each pipeline consults the
// content-addressed store (io/store.h) before running. Because engine node
// counts are NOT invariant under chromatic isomorphism (exploration order
// follows pool interning order), two isomorphic catalog entries racing to
// publish one store entry would make reports depend on scheduling. The
// driver therefore runs a sequential fingerprint pre-pass and *dedups
// within the batch*: a slot whose fingerprint matches an earlier slot never
// runs — it replays that slot's finished report (renamed to its own task)
// as a cache hit. The pre-pass order is catalog order, so which twin runs
// cold is a pure function of the selection, at every `jobs` value.

#include <string>
#include <vector>

#include "solver/pipeline.h"

namespace trichroma {

struct BatchOptions {
  /// Per-task pipeline budget.
  SolvabilityOptions solve;
  /// Concurrent whole-task pipeline jobs. 0 = hardware concurrency.
  int jobs = 1;
  /// Restrict to these catalog names (empty = the whole catalog). Unknown
  /// names throw std::invalid_argument.
  std::vector<std::string> only;
  /// When non-empty, a HeartbeatWriter publishes rename-atomic liveness
  /// snapshots (schema trichroma.heartbeat/1: progress over the selected
  /// tasks, RSS, metrics registry) to this path every heartbeat_interval_s
  /// seconds for the duration of the run, plus a final flush. Pure
  /// observability — reports are unaffected.
  std::string heartbeat_file;
  double heartbeat_interval_s = 5.0;
};

struct BatchTaskResult {
  std::string name;
  PipelineReport report;
};

struct BatchResult {
  /// One entry per selected task, in catalog order.
  std::vector<BatchTaskResult> tasks;
  double wall_ms = 0.0;
  /// Number of tasks whose verdict stayed Unknown.
  int unknown = 0;
  /// Verdict-store rollup (zero when solve.cache_dir is empty): hits counts
  /// both store replays and intra-batch isomorphic-twin replays. A task
  /// that warm-started from a budget sibling's record or artifacts counts
  /// in BOTH cache_misses (its exact key missed) and cache_artifacts.
  int cache_hits = 0;
  int cache_misses = 0;
  int cache_artifacts = 0;
};

/// 0 → hardware concurrency, else the request unchanged.
int resolve_batch_jobs(int requested);

BatchResult run_batch(const BatchOptions& options);

}  // namespace trichroma
