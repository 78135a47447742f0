#pragma once
// The verdict pipeline: schedules AnalysisEngine units over a task and
// merges their reports into one deterministic verdict.
//
// Scheduling. With one worker thread the engines run in the classic ladder
// order (impossibility chain, then the chromatic probe ladder, then the
// T'-agnostic probe), each skipped as soon as an earlier engine concludes —
// exactly the pre-refactor sequential cost model. With two or more threads
// (and schedule = kAuto) the two sides *race*: the impossibility lane
// (characterize → Corollaries 5.5/5.6 → post-split CSP → homology →
// T'-agnostic probe) is submitted to the shared work-stealing executor as a
// job group over a clone_task copy of the task (pools are unsynchronized),
// while the possibility lane (the chromatic probe ladder) runs on the
// calling thread over the original task. The first conclusive engine
// cancels the dominated side through the lanes' cancellation tokens, so
// e.g. zoo::identity no longer pays for canonicalize+split before its
// radius-0 witness, and majority_consensus no longer pays a 20M-node
// refutation after its obstruction fired.
//
// Determinism. Engines are sound, so possibility and impossibility can
// never both conclude; within a side, a fixed precedence order (the
// pre-refactor ladder order) selects the reported verdict and reason.
// Verdict, reason, radius, via_characterization AND every engine's
// nodes_explored are identical for every thread count: the decision-map
// searches inside the engines use canonical prefix accounting (see
// map_search.cpp), so threads only change wall-clock. Per-engine *statuses*
// are schedule-dependent in racing mode (the losing lane reports
// Cancelled); force schedule = kLadder to pin the full report — engine
// statuses included — while inner searches still parallelize. That is what
// the batch driver does to make its report files byte-identical.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/executor.h"
#include "solver/engine.h"
#include "tasks/task.h"

namespace trichroma {

/// How the pipeline schedules its two lanes. kAuto races them on >= 2
/// threads (fastest wall-clock; the losing lane's statuses depend on
/// timing); kLadder always runs the classic sequential ladder, whose
/// engine statuses are a pure function of the task and budget.
enum class PipelineSchedule { kAuto, kLadder };

struct SolvabilityOptions {
  int max_radius = 2;
  std::size_t node_cap = 20'000'000;
  /// Also try the characterization route (split + color-agnostic search)
  /// when the direct chromatic search fails.
  bool use_characterization = true;
  /// Worker threads for the pipeline and every decision-map search inside
  /// it. 1 (the default) = sequential ladder, 0 = hardware concurrency. The
  /// verdict is identical for every thread count; >= 2 additionally races
  /// the impossibility lane against the possibility lane. The default does
  /// not depend on the host, so neither does the report.
  int threads = 1;
  /// Lane scheduling policy (see PipelineSchedule).
  PipelineSchedule schedule = PipelineSchedule::kAuto;
  /// Memoize Ch^r across the radius ladder (SubdivisionLadder) instead of
  /// recomputing every round from scratch at each radius. Off is only
  /// useful for benchmarking the cold path.
  bool reuse_subdivisions = true;
  /// Share Δ-image complexes across radii and probe modes (DeltaImageCache).
  bool reuse_images = true;
  /// Root directory of the content-addressed verdict store (io/store.h).
  /// Empty = caching off. When set, the pipeline fingerprints the task,
  /// consults the store before scheduling any engine, and publishes
  /// conclusive verdicts (plus ladder/Δ-image artifacts) after cold runs.
  /// NOT part of the cache key and never rendered into reports (store
  /// locations are machine-specific; reports must compare across machines).
  std::string cache_dir;
};

/// The whole pipeline run, serializable via io::to_json (schema
/// trichroma.pipeline-report/9).
struct PipelineReport {
  std::string task_name;
  int num_processes = 3;
  std::size_t input_facets = 0;
  std::size_t output_facets = 0;
  SolvabilityOptions options;
  /// How the lanes actually ran: "exact" (two-process branch), "ladder"
  /// (sequential schedule) or "racing". Everything except engine statuses
  /// under "racing" is schedule-independent.
  std::string schedule = "ladder";
  Verdict verdict = Verdict::Unknown;
  std::string reason;
  /// Radius of the found decision map (when Solvable via map search).
  int radius = -1;
  bool via_characterization = false;
  /// Whether the characterization lane ran to completion and produced a
  /// CharacterizationResult. Can be false even when the route was enabled:
  /// at >= 2 threads the possibility lane may conclude and cancel the
  /// impossibility lane before canonicalization finishes. Reports render it
  /// as an explicit "characterization": "computed" | "not-computed" marker
  /// so consumers never have to guess whether an absent payload means
  /// "skipped" or "raced out".
  bool characterization_computed = false;
  double total_wall_ms = 0.0;
  /// Phase latency breakdown for the run record (schema v9's "run" object):
  /// store consult + warm-start seeding, engine execution, publication.
  /// Wall-clock quantities — zeroed under redact_timings exactly like
  /// total_wall_ms. Phases a run never entered stay 0 (e.g. engines on a
  /// cache hit).
  double phase_consult_ms = 0.0;
  double phase_engines_ms = 0.0;
  double phase_publish_ms = 0.0;
  /// Verdict-store outcome: "off" (no cache_dir), "hit" (replayed from the
  /// store — or from an isomorphic twin earlier in the same batch),
  /// "artifacts" (warm-started on a budget-only miss: either a sibling
  /// record replayed verbatim, or stored ladder/Δ-image artifacts seeded
  /// the probe engines), "miss" (cold run, store consulted). Everything but
  /// the cache markers is byte-identical between "artifacts" and a cold
  /// run; reports render this and the cache metrics on lines containing
  /// `"cache":` so byte-comparisons can filter them.
  std::string cache = "off";
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  /// Ladder levels materialized from a stored artifact (counting Ch^0);
  /// 0 on cold runs and record replays. Cache telemetry only.
  int cache_seeded_levels = 0;
  /// Bytes published to the store by this run (record + artifacts).
  std::uint64_t cache_store_bytes = 0;
  /// Shared-pool scheduling telemetry, as a delta over this run (global
  /// stats sampled at entry and exit). Nondeterministic — stealing depends
  /// on timing, and concurrent batch jobs' tickets land in the same delta —
  /// so reports zero it under redact_timings, like wall clocks.
  ExecutorStats executor_stats;
  /// Parallel ladder-build telemetry, as a delta over this run (global
  /// counters sampled at entry and exit). `parallel_chunks` counts builder
  /// chunks stamped by parallel `subdivide_once` phases, `merge_ns` the
  /// wall time of their canonical-order merges, `stripe_contention` the
  /// failed stripe claims during Δ-image population. All three depend on
  /// thread count and timing (and concurrent batch jobs share the globals),
  /// so reports zero the whole sub-object under redact_timings.
  struct LadderBuildStats {
    std::uint64_t parallel_chunks = 0;
    std::uint64_t merge_ns = 0;
    std::uint64_t stripe_contention = 0;
  };
  LadderBuildStats ladder_stats;
  /// One entry per schedulable engine, in canonical pipeline order (engines
  /// the schedule never started appear with status "skipped").
  std::vector<EngineReport> engines;
};

/// Pipeline output: the merged report plus the witness payload the
/// decide_solvability façade re-exposes.
struct PipelineResult {
  PipelineReport report;

  /// When Solvable via the direct chromatic probe: the witness map and its
  /// domain (shared with the probe's subdivision ladder; vertex ids live in
  /// the original task's pool).
  bool has_chromatic_witness = false;
  std::shared_ptr<const SubdividedComplex> witness_domain;
  VertexMap witness;

  /// The characterization lane's output, when it ran to completion. The
  /// contained tasks reference the lane's cloned pool (kept alive here).
  std::shared_ptr<CharacterizationResult> characterization;
  CorollaryResult cor55;
  CorollaryResult cor56;
};

/// Runs the full engine pipeline on `task`. decide_solvability is a thin
/// façade over this; call it directly to get the structured report.
PipelineResult run_pipeline(const Task& task,
                            const SolvabilityOptions& options = {});

}  // namespace trichroma
