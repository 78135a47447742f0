#pragma once
// The combined solvability decision procedure — a thin façade over the
// engine pipeline (solver/pipeline.h).
//
// For three-process tasks the procedure is a sound semi-decision pair wired
// through the paper's characterization (Theorem 5.1):
//
//   1. Impossibility: canonicalize and split (T → T* → T'), then run the
//      decidable obstruction engines on T' — the connectivity CSP (the
//      paper's post-split Corollary 5.5 shape) and the GF(2) homological
//      boundary check (the contractibility-type obstruction). Either one
//      failing certifies unsolvability of T. The paper's literal pre-split
//      Corollaries 5.5/5.6 are also evaluated for reporting.
//   2. Possibility: search for a chromatic decision map δ : Ch^r(I) → O for
//      r = 0, 1, ..., max_radius (a witness is a protocol), and — via the
//      characterization — for a color-agnostic map into T', which by
//      Lemma 5.3 (the Figure-7 algorithm) also yields a protocol.
//
// The pipeline runs the two sides as one sequential ladder on the calling
// thread, stopping at the first conclusive engine (see solver/pipeline.h).
//
// Existence of a continuous map is undecidable in general, so the pipeline
// can return Unknown when every engine is inconclusive at the configured
// radius; all of the paper's examples are decided at r <= 2.
//
// Two-process tasks are decided exactly (Proposition 5.4): solvable iff the
// connectivity CSP is feasible.
//
// Tasks with four or more processes get partial support (the paper's §7
// future work): the generic engines — connectivity CSP for impossibility,
// direct decision-map search (with n-ary simplex constraints) for
// possibility — run, but the splitting characterization does not, so e.g.
// (4,3)-set agreement honestly returns Unknown.

#include <memory>
#include <string>

#include "core/characterization.h"
#include "core/obstructions.h"
#include "solver/map_search.h"
#include "solver/pipeline.h"
#include "tasks/task.h"

namespace trichroma {

struct SolvabilityResult {
  Verdict verdict = Verdict::Unknown;
  std::string reason;

  /// Radius of the found decision map (when Solvable via map search).
  int radius = -1;
  /// True if the verdict came from the T' pipeline rather than directly.
  bool via_characterization = false;

  /// When Solvable via direct chromatic search: the witness map and its
  /// domain (Ch^radius of the task's input complex), shared with the
  /// probe's subdivision ladder rather than deep-copied.
  bool has_chromatic_witness = false;
  std::shared_ptr<const SubdividedComplex> witness_domain;
  VertexMap witness;

  /// The characterization pipeline output (populated when the
  /// characterization route ran). Its tasks reference their own cloned
  /// pool — use
  /// `characterization->canonical.pool` for names, not the original task's.
  std::shared_ptr<CharacterizationResult> characterization;
  /// Pre-split corollaries, for reporting.
  CorollaryResult cor55;
  CorollaryResult cor56;

  /// The full structured pipeline report (per-engine timings, node counts,
  /// cache stats); serialize with io::to_json.
  std::shared_ptr<const PipelineReport> report;
};

/// Decides wait-free solvability of a two- or three-process task.
SolvabilityResult decide_solvability(const Task& task,
                                     const SolvabilityOptions& options = {});

/// Proposition 5.4: exact decision for two-process tasks. Honors the
/// budget in `options` (node cap; the CSP detail lands in the report).
SolvabilityResult decide_two_process(const Task& task,
                                     const SolvabilityOptions& options = {});

/// Colorless probe: searches for a color-agnostic decision map on the task
/// itself (not T'). Used to demonstrate the hourglass phenomenon: the
/// colorless ACT condition can hold while the chromatic task is unsolvable.
/// Implemented as a standalone ProbeEngine invocation honoring every budget
/// knob (node cap, reuse_subdivisions, reuse_images).
MapSearchResult colorless_probe(const Task& task, const SolvabilityOptions& options);
MapSearchResult colorless_probe(const Task& task, int max_radius,
                                std::size_t node_cap = 20'000'000);

}  // namespace trichroma
