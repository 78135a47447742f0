#pragma once
// Composable analysis engines: the units of the solvability pipeline.
//
// Theorem 5.1's decision procedure is a portfolio of semi-decision engines —
// sound impossibility checks (corner-assignment CSPs, the homological
// boundary obstruction, the paper's Corollaries 5.5/5.6) and bounded
// possibility searches (the decision-map probe ladders). Each step is an
// AnalysisEngine: a uniform unit with a declared budget, a cancellation
// token checked once before it starts, and a typed EngineReport (timings,
// nodes explored, cache hit counts, radius reached,
// conclusive/inconclusive). The sequential ladder in solver/pipeline.h
// composes the units; nothing here schedules.
//
// Soundness is what lets the ladder stop early: an impossibility engine
// concluding proves every possibility engine would stay inconclusive (and
// vice versa), so skipping the other side never changes the merged verdict.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/characterization.h"
#include "core/obstructions.h"
#include "solver/map_search.h"
#include "tasks/fingerprint.h"
#include "tasks/task.h"

namespace trichroma {

enum class Verdict { Solvable, Unsolvable, Unknown };

const char* to_string(Verdict v);

/// Cooperative cancellation: a one-way flag that AnalysisEngine::run checks
/// once before an engine starts.
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

/// Which side of the semi-decision pair an engine argues. Exact engines
/// (Proposition 5.4 for two processes) decide both directions; Support
/// engines (characterization) produce inputs for others, never a verdict.
enum class EngineSide { Exact, Impossibility, Possibility, Support };

/// How one engine run ended. Conclusive carries a verdict; Completed is the
/// Support analogue ("ran to the end, no verdict by design"); Inconclusive
/// means the engine ran but its condition did not decide the task.
enum class EngineStatus { Conclusive, Inconclusive, Completed, Cancelled, Skipped };

const char* to_string(EngineSide s);
const char* to_string(EngineStatus s);

/// The budget every engine runs under, derived from SolvabilityOptions.
struct EngineBudget {
  int max_radius = 2;
  std::size_t node_cap = 20'000'000;
  /// Ignored: every engine runs on the calling thread. Declared only
  /// because the end-to-end benchmark (perf/) still sets it.
  int threads = 1;
  bool reuse_subdivisions = true;
  bool reuse_images = true;
};

/// Typed per-engine outcome; the JSON report serializes these verbatim.
struct EngineReport {
  std::string name;
  EngineSide side = EngineSide::Support;
  EngineStatus status = EngineStatus::Skipped;
  /// Merge precedence: among conclusive engines, lowest wins (mirrors the
  /// pre-refactor ladder order, which is what keeps verdicts identical).
  int precedence = 0;
  /// Meaningful only when status == Conclusive.
  Verdict verdict = Verdict::Unknown;
  /// Merge-ready reason string, set when Conclusive.
  std::string reason;
  /// Engine-specific diagnostic (CSP detail, characterization summary, ...).
  std::string detail;
  /// Probes: last radius attempted / radius of the found map.
  int radius_reached = -1;
  int witness_radius = -1;
  std::size_t nodes_explored = 0;
  std::size_t image_cache_hits = 0;
  std::size_t image_cache_misses = 0;
  std::size_t edge_mask_hits = 0;
  std::size_t edge_mask_misses = 0;
  /// Which probe/radius combinations stopped on the node cap — the material
  /// for an honest Unknown reason.
  std::vector<std::string> capped;
  /// Which probe/radius combinations exceeded the word-parallel domain width
  /// (MapSearchResult::domain_overflow) — a representation limit, reported
  /// separately from budget caps so the Unknown reason names it.
  std::vector<std::string> overflowed;
  /// Probe engines only (empty elsewhere): the CSP candidate-list-size
  /// distribution summed over every rung climbed — counts per base-2 log
  /// bucket (obs::Histogram::bucket_index boundaries, trimmed after the
  /// last non-zero bucket) with the matching sample count and value sum.
  /// Pure functions of task + budget, so they ride in the deterministic
  /// report slice (schema v9+) and the verdict record (v3).
  std::vector<std::uint64_t> domain_size_hist;
  std::uint64_t domain_size_count = 0;
  std::uint64_t domain_size_sum = 0;
  /// Probe engines only: facets of the Ch^r probe domain per rung climbed
  /// (index = radius). Checkable against Kozlov's chromatic-subdivision
  /// growth rates — a pure 2-dimensional level has 13× its predecessor's
  /// facets. Deterministic, same contract as domain_size_hist.
  std::vector<std::uint64_t> level_facets;
  double wall_ms = 0.0;
};

/// One uniform pipeline unit. `run` owns the boilerplate — timing, the
/// upfront token check, name/side/precedence stamping — and delegates the
/// actual analysis to `execute`.
class AnalysisEngine {
 public:
  virtual ~AnalysisEngine() = default;

  virtual const char* name() const = 0;
  virtual EngineSide side() const = 0;
  virtual int precedence() const = 0;

  EngineReport run(const EngineBudget& budget, const CancellationToken& token);

  /// A Skipped placeholder, for engines the schedule never started.
  EngineReport skipped() const;

 protected:
  virtual void execute(const EngineBudget& budget, EngineReport& report) = 0;
};

/// Fixed precedence numbers, mirroring the pre-refactor ladder order.
namespace engine_precedence {
constexpr int kTwoProcess = 0;
constexpr int kGenericConnectivity = 5;
constexpr int kPostSplitCsp = 10;
constexpr int kHomology = 11;
constexpr int kCorollary55 = 12;
constexpr int kCorollary56 = 13;
constexpr int kChromaticProbe = 20;
constexpr int kAgnosticProbe = 30;
constexpr int kColorlessProbe = 40;
}  // namespace engine_precedence

/// Proposition 5.4: exact two-process decision via the connectivity CSP.
class TwoProcessEngine final : public AnalysisEngine {
 public:
  explicit TwoProcessEngine(const Task& task) : task_(task) {}
  const char* name() const override { return "two-process-csp"; }
  EngineSide side() const override { return EngineSide::Exact; }
  int precedence() const override { return engine_precedence::kTwoProcess; }

 protected:
  void execute(const EngineBudget& budget, EngineReport& report) override;

 private:
  const Task& task_;
};

/// The pre-split connectivity CSP for tasks of four or more processes (the
/// only impossibility engine available without the three-process
/// characterization).
class GenericConnectivityEngine final : public AnalysisEngine {
 public:
  explicit GenericConnectivityEngine(const Task& task) : task_(task) {}
  const char* name() const override { return "generic-connectivity-csp"; }
  EngineSide side() const override { return EngineSide::Impossibility; }
  int precedence() const override {
    return engine_precedence::kGenericConnectivity;
  }

 protected:
  void execute(const EngineBudget& budget, EngineReport& report) override;

 private:
  const Task& task_;
};

/// Support: canonicalize + LAP-split (T → T* → T'). Interns into the task's
/// pool, so the pipeline runs it on a clone_task copy.
class CharacterizeEngine final : public AnalysisEngine {
 public:
  explicit CharacterizeEngine(const Task& task) : task_(task) {}
  const char* name() const override { return "characterize"; }
  EngineSide side() const override { return EngineSide::Support; }
  int precedence() const override { return 1; }

  /// The characterization, once run; null if skipped/cancelled.
  std::shared_ptr<CharacterizationResult> result() const { return result_; }

 protected:
  void execute(const EngineBudget& budget, EngineReport& report) override;

 private:
  const Task& task_;
  std::shared_ptr<CharacterizationResult> result_;
};

/// Corollary 5.5 on the canonical task T*.
class Corollary55Engine final : public AnalysisEngine {
 public:
  explicit Corollary55Engine(const Task& tstar) : tstar_(tstar) {}
  const char* name() const override { return "corollary-5.5"; }
  EngineSide side() const override { return EngineSide::Impossibility; }
  int precedence() const override { return engine_precedence::kCorollary55; }

  const CorollaryResult& result() const { return result_; }

 protected:
  void execute(const EngineBudget& budget, EngineReport& report) override;

 private:
  const Task& tstar_;
  CorollaryResult result_;
};

/// Corollary 5.6 on the canonical task T*.
class Corollary56Engine final : public AnalysisEngine {
 public:
  explicit Corollary56Engine(const Task& tstar) : tstar_(tstar) {}
  const char* name() const override { return "corollary-5.6"; }
  EngineSide side() const override { return EngineSide::Impossibility; }
  int precedence() const override { return engine_precedence::kCorollary56; }

  const CorollaryResult& result() const { return result_; }

 protected:
  void execute(const EngineBudget& budget, EngineReport& report) override;

 private:
  const Task& tstar_;
  CorollaryResult result_;
};

/// The post-split connectivity CSP on T' (Theorem 5.1 + Corollary 5.5 shape).
class PostSplitCspEngine final : public AnalysisEngine {
 public:
  explicit PostSplitCspEngine(const Task& tp) : tp_(tp) {}
  const char* name() const override { return "post-split-connectivity-csp"; }
  EngineSide side() const override { return EngineSide::Impossibility; }
  int precedence() const override { return engine_precedence::kPostSplitCsp; }

 protected:
  void execute(const EngineBudget& budget, EngineReport& report) override;

 private:
  const Task& tp_;
};

/// The homological boundary obstruction on T'.
class HomologyEngine final : public AnalysisEngine {
 public:
  explicit HomologyEngine(const Task& tp) : tp_(tp) {}
  const char* name() const override { return "post-split-homology"; }
  EngineSide side() const override { return EngineSide::Impossibility; }
  int precedence() const override { return engine_precedence::kHomology; }

 protected:
  void execute(const EngineBudget& budget, EngineReport& report) override;

 private:
  const Task& tp_;
};

/// Which decision-map probe ladder a ProbeEngine climbs.
enum class ProbeKind {
  /// Chromatic δ : Ch^r(I) → O on the task itself — a found map IS a
  /// wait-free protocol.
  DirectChromatic,
  /// Color-agnostic map into T' (Lemma 5.3 / the Figure-7 algorithm).
  LinkConnectedAgnostic,
  /// Color-agnostic map on the task itself (the standalone colorless probe
  /// of the hourglass demonstrations; never scheduled by the pipeline).
  ColorlessDirect,
};

/// Warm-start seed for a chromatic probe: serialized store artifacts from a
/// stored twin of the task (io/store.h), plus the LIVE task's canonical
/// labeling to translate them into its display identity. The engine
/// materializes the seed inside `execute` — after any pipeline-level task
/// cloning, so the pool reaches exactly the state a cold run would — and
/// silently falls back to a cold build on any malformed body.
struct ProbeSeed {
  std::string ladder_body;   ///< serialized ladder levels ("" = none)
  std::string images_body;   ///< serialized Δ-image rows ("" = none)
  CanonicalLabeling labeling;  ///< the live task's canonical labeling
};

/// The possibility side: climbs the radius ladder r = 0..max_radius running
/// one decision-map search per rung, sharing one SubdivisionLadder and one
/// DeltaImageCache across rungs (both optional via the budget's reuse
/// flags). Interns subdivision vertices into the task's pool, so the
/// caller must own that pool exclusively while the probe runs.
class ProbeEngine final : public AnalysisEngine {
 public:
  ProbeEngine(const Task& task, ProbeKind kind) : task_(task), kind_(kind) {}

  const char* name() const override;
  EngineSide side() const override { return EngineSide::Possibility; }
  int precedence() const override;

  bool found() const { return found_; }
  int found_radius() const { return found_radius_; }
  const VertexMap& witness() const { return last_.map; }
  /// Domain of the found map (Ch^found_radius of the task's input),
  /// shared with the probe's ladder.
  std::shared_ptr<const SubdividedComplex> witness_domain() const {
    return witness_domain_;
  }
  /// The final find_decision_map result (the found one, or the last rung's).
  const MapSearchResult& last() const { return last_; }

  /// Ch^0..Ch^r domains the probe actually climbed (one per rung reached),
  /// shared with the probe's ladder. The verdict store serializes these as
  /// the "ladder.levels" artifact after a conclusive cold run.
  const std::vector<std::shared_ptr<const SubdividedComplex>>&
  computed_levels() const {
    return computed_levels_;
  }

  /// Hands the probe a warm-start seed (DirectChromatic only; others
  /// ignore it). Must be set before `run`.
  void set_seed(std::shared_ptr<const ProbeSeed> seed) {
    seed_ = std::move(seed);
  }

  /// Ladder levels materialized from the seed (counting Ch^0); 0 when no
  /// seed was given, it failed to parse, or the probe never ran. Feeds the
  /// report's cache metrics only — never the deterministic report slice.
  int seeded_levels() const { return seeded_levels_; }

  /// Δ-image rows preloaded from the seed (same caveats).
  int seeded_images() const { return seeded_images_; }

 protected:
  void execute(const EngineBudget& budget, EngineReport& report) override;

 private:
  const Task& task_;
  ProbeKind kind_;
  bool found_ = false;
  int found_radius_ = -1;
  std::shared_ptr<const SubdividedComplex> witness_domain_;
  std::vector<std::shared_ptr<const SubdividedComplex>> computed_levels_;
  std::shared_ptr<const ProbeSeed> seed_;
  int seeded_levels_ = 0;
  int seeded_images_ = 0;
  MapSearchResult last_;
};

}  // namespace trichroma
