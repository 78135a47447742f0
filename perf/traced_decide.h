#pragma once
// The benchmark's traced decide: the ladder-schedule pipeline of
// solver/pipeline.cpp recomposed from the public functions of each module
// (tasks, core, topology, solver, io), with a span around every call into a
// layer. It produces the same PipelineReport as run_pipeline — the benchmark
// checks that byte for byte — so the per-layer self times it accumulates
// describe the work an untraced decide does.
//
// Only what the benchmark's workloads use is mirrored: two- and
// three-process tasks, threads = 1, schedule = kLadder, reuse of
// subdivisions and images on, and the optional verdict store.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "solver/pipeline.h"
#include "topology/chromatic.h"
#include "topology/subdivision.h"

namespace trichroma::perf {

/// The layers a traced decide attributes time to, named
/// `<module>.<public function>` in the benchmark output.
enum class Layer : std::size_t {
  kCloneTask,
  kCanonicalize,
  kFingerprint,
  kCharacterize,
  kMakeLinkConnected,
  kBettiNumbers,
  kCorollary55,
  kCorollary56,
  kConnectivityCsp,
  kHomology,
  kLadder,
  kDeltaImages,
  kFindDecisionMap,
  kLoadVerdict,
  kScanSiblings,
  kArtifactRead,
  kStoreVerdict,
  kArtifactWrite,
  kCount,
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

/// Metric-name stem of a layer, e.g. "core.make_link_connected".
const char* layer_name(Layer layer);

/// Work the layers did, as exact counts. For one task and budget these are
/// pure functions of the input, so they repeat exactly across runs.
struct WorkCounts {
  std::uint64_t splits = 0;
  std::uint64_t csp_nodes = 0;
  std::uint64_t homology_nodes = 0;
  std::uint64_t search_nodes = 0;
  std::uint64_t ladder_facets = 0;
  std::uint64_t image_hits = 0;
  std::uint64_t image_misses = 0;
  std::uint64_t mask_hits = 0;
  std::uint64_t mask_misses = 0;
  std::uint64_t fingerprint_leaves = 0;
  std::uint64_t store_lookups = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t bytes_written = 0;

  WorkCounts& operator+=(const WorkCounts& o);
  bool operator==(const WorkCounts&) const = default;
};

/// The engine-work counts a pipeline report records (a replayed store
/// record carries the counts of the cold run that produced it). Fills the
/// solver and core fields of WorkCounts; the store fields stay 0.
WorkCounts counts_of(const PipelineReport& report);

class Span;

/// Per-layer self time (span duration minus the part its child spans cover)
/// plus the work counts, accumulated over every traced decide.
struct Tracer {
  std::array<double, kLayerCount> self_ms{};
  WorkCounts work;
  Span* top = nullptr;  ///< innermost open span
};

/// One open span; closes at scope exit. Spans nest strictly (RAII), so a
/// closing span charges its whole duration to its parent's child time.
class Span {
 public:
  Span(Tracer& tracer, Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  Layer layer_;
  Span* parent_;
  std::chrono::steady_clock::time_point start_;
  double child_ms_ = 0.0;
};

/// What a decide returns to the benchmark: the report plus the chromatic
/// witness (whose vertex ids live in the decided task's pool).
struct Decision {
  PipelineReport report;
  bool has_witness = false;
  std::shared_ptr<const SubdividedComplex> witness_domain;
  VertexMap witness;
  /// Wall time of the decide itself. Like run_pipeline's caller, it does
  /// not pay for freeing what the result still holds (`keep_alive`).
  double elapsed_ms = 0.0;
  std::shared_ptr<const void> keep_alive;
};

/// run_pipeline(task, options) through the public API, untraced.
Decision plain_decide(const Task& task, const SolvabilityOptions& options);

/// The same decide recomposed from layer calls, each under a span.
/// `options.threads` must be 1 and `options.schedule` kLadder.
Decision traced_decide(const Task& task, const SolvabilityOptions& options,
                       Tracer& tracer);

}  // namespace trichroma::perf
