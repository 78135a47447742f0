#pragma once
// Content-addressed verdict/artifact store, keyed by canonical task
// fingerprints (tasks/fingerprint.h).
//
// Layout: one directory per task under the store root, sharded by the
// fingerprint's first hex byte —
//
//   <root>/<fp[0:2]>/<fp>/verdict-<options-digest>.rec
//   <root>/<fp[0:2]>/<fp>/ladder.levels.art
//   <root>/<fp[0:2]>/<fp>/delta.images.art
//
// Verdict records hold the deterministic slice of a PipelineReport (task
// shape, schedule, verdict, reason, radius, characterization markers, and
// every engine entry minus wall clocks). They are keyed by the fingerprint
// AND an options digest: the verdict, the engine statuses, and even the
// node counts are functions of the budget (max_radius, node_cap, route
// flags) and of the *resolved* schedule ("exact" and "ladder" reports list
// different engines), so records for different budgets never alias. Every
// stored quantity is a pure function of the task and that key (see
// solver/pipeline.h), which is precisely what makes a cache hit
// byte-identical to the cold run it replays.
//
// Artifacts are serialized in the *canonical index space* of the labeling:
// a ladder tower or Δ-image table written by one task loads against any
// chromatically isomorphic task, because both sides translate through
// their own canonical labeling.
//
// Durability contract: writes go through obs::atomic_write_file (a temp
// file in the entry directory, renamed into place: atomic on POSIX), every
// file carries the store schema line plus a length + FNV-1a-64 checksum
// header, and *any* anomaly on the read side — missing file, truncation,
// checksum mismatch, version mismatch, malformed body — is a cache miss,
// never a crash. The store is best-effort by design: an unwritable
// directory degrades to cache-off.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "solver/pipeline.h"
#include "tasks/fingerprint.h"
#include "tasks/task.h"
#include "topology/subdivision.h"

namespace trichroma::io {

/// Store-level schema: first token of every file the store writes. Bump on
/// any container-format change so old stores read as misses.
inline constexpr char kStoreSchema[] = "trichroma.store/1";

/// Verdict-record body format version (inside the container). v2 added the
/// budget knobs the record was produced under, so a sibling scan can tell
/// which stored run differs from the live one in `--max-radius` alone.
inline constexpr char kVerdictRecordSchema[] = "trichroma.verdict-record/3";

/// Digest of the budget fields + resolved schedule a verdict depends on.
/// 16 hex characters (FNV-1a 64 over a canonical rendering).
std::string options_digest(const SolvabilityOptions& options,
                           const std::string& resolved_schedule);

/// The budget knobs a verdict record was produced under (record schema v2).
/// Together with the resolved schedule (stored in the report slice) these
/// reconstruct the record's options digest — the warm-start sibling scan
/// compares them field by field against the live budget instead.
struct VerdictRecordBudget {
  int max_radius = 0;
  std::uint64_t node_cap = 0;
  bool use_characterization = true;
  bool reuse_subdivisions = true;
  bool reuse_images = true;
};

/// One stored verdict record found by the fingerprint-scoped sibling scan.
struct SiblingVerdict {
  std::string opt_digest;       ///< digest the record is keyed under
  VerdictRecordBudget budget;   ///< budget knobs it was produced under
  PipelineReport report;        ///< record-carried report slice
};

/// FNV-1a 64-bit (exposed for tests).
std::uint64_t fnv1a64(const void* data, std::size_t size);

class VerdictStore {
 public:
  /// Opens (lazily creates) a store rooted at `root`. Never throws; a
  /// hostile root simply makes every operation return false.
  explicit VerdictStore(std::string root);

  const std::string& root() const { return root_; }

  /// `<root>/<fp[0:2]>/<fp>` — the entry directory for one task class.
  std::string entry_dir(const TaskFingerprint& fp) const;

  /// Loads the verdict record for (fp, options_digest). On hit, overwrites
  /// the record-carried fields of `report` (task shape, schedule, verdict,
  /// reason, radius, characterization markers, engines; wall clocks
  /// zeroed) and returns true. Options and cache fields of `report` are
  /// left to the caller. Any anomaly returns false.
  bool load_verdict(const TaskFingerprint& fp, const std::string& opt_digest,
                    PipelineReport* report) const;

  /// Atomically publishes the verdict record for (fp, options_digest),
  /// stamped with the budget knobs it was produced under. Returns false
  /// (without throwing) on any I/O failure.
  bool store_verdict(const TaskFingerprint& fp, const std::string& opt_digest,
                     const PipelineReport& report,
                     const VerdictRecordBudget& budget = {}) const;

  /// Enumerates every readable verdict record in the task's entry directory
  /// across options digests, in digest order. Unreadable or stale-format
  /// records are silently skipped; a missing entry yields an empty vector.
  /// This is the warm-start sibling scan: on a verdict miss the pipeline
  /// looks here for a stored run that differs from the live budget in
  /// `max_radius` alone.
  std::vector<SiblingVerdict> scan_siblings(const TaskFingerprint& fp) const;

  /// Raw artifact plumbing. `name` is a flat file label ("ladder.levels");
  /// bodies are wrapped in the same checksummed container as records.
  bool store_artifact(const TaskFingerprint& fp, const std::string& name,
                      const std::string& body) const;
  bool load_artifact(const TaskFingerprint& fp, const std::string& name,
                     std::string* body) const;

  /// Bytes successfully written through this handle (records + artifacts,
  /// container headers included) — the `cache.store_bytes` counter source.
  std::uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }

  /// Store-wide accounting for `trichroma cache stats`.
  struct Stats {
    std::uint64_t entries = 0;          ///< task entry directories
    std::uint64_t verdict_records = 0;
    std::uint64_t verdict_bytes = 0;
    std::uint64_t artifact_files = 0;
    std::uint64_t artifact_bytes = 0;
    std::uint64_t other_files = 0;      ///< stray temp/foreign files
    std::uint64_t other_bytes = 0;
    std::uint64_t total_bytes() const {
      return verdict_bytes + artifact_bytes + other_bytes;
    }
  };

  /// Walks the store and counts files/bytes per kind. Never throws; an
  /// unreadable root yields all-zero stats.
  Stats stats() const;

  struct PruneResult {
    std::uint64_t evicted_entries = 0;
    std::uint64_t evicted_bytes = 0;
    std::uint64_t remaining_bytes = 0;
  };

  /// Evicts whole task entries, least-recently-written first, until the
  /// store holds at most `max_bytes`. Eviction is entry-granular by design:
  /// a verdict record and the artifacts it warm-starts from live in the
  /// same entry directory, so no surviving verdict is ever stranded without
  /// its artifacts. Never throws.
  PruneResult prune(std::uint64_t max_bytes) const;

 private:
  bool write_file(const std::string& dir, const std::string& filename,
                  const std::string& contents) const;

  std::string root_;
  // Atomic so concurrent pipelines may share one handle; all other state is
  // immutable after construction.
  mutable std::atomic<std::uint64_t> bytes_written_{0};
};

// --- record/artifact codecs, exposed for tests ----------------------------

/// Wraps `body` in the store container: schema + kind line, length +
/// checksum line, then the body bytes verbatim.
std::string wrap_record(const std::string& kind, const std::string& body);

/// Validates a container of the given kind; extracts the body. False on
/// any mismatch (schema, kind, length, checksum).
bool unwrap_record(const std::string& file_contents, const std::string& kind,
                   std::string* body);

/// Serializes the deterministic slice of a report (plus the budget knobs it
/// was produced under) as a verdict-record body.
std::string serialize_verdict_record(const PipelineReport& report,
                                     const VerdictRecordBudget& budget = {});

/// Parses a verdict-record body. False on version mismatch or malformed
/// fields; on success overwrites the record-carried fields of `report` and,
/// when `budget` is non-null, the stored budget knobs.
bool parse_verdict_record(const std::string& body, PipelineReport* report,
                          VerdictRecordBudget* budget = nullptr);

/// Serializes ladder levels Ch^1..Ch^R of `task`'s input complex relative
/// to `labeling`'s canonical index space. `levels[r]` must be Ch^r
/// (levels[0], the identity subdivision, is derivable and not serialized).
/// Format v2: each level's rows are written in the writer's intern order
/// (ascending vertex id), so a same-task load re-interns every subdivision
/// vertex in exactly the cold build order — the warm-start determinism
/// contract. View/carrier/facet ordinals are canonical (prev-level row
/// index resp. base index), so the body still loads against any
/// chromatically isomorphic task.
std::string serialize_ladder_levels(
    const Task& task, const CanonicalLabeling& labeling,
    const std::vector<std::shared_ptr<const SubdividedComplex>>& levels);

/// Number of levels a ladder-levels body records (counting the implicit
/// level 0); 0 on a malformed header. The artifact depth ratchet: a stored
/// tower is only overwritten by a strictly deeper one.
std::size_t ladder_levels_count(const std::string& body);

/// Reconstructs ladder levels against `task` (any task chromatically
/// isomorphic to the serializer's, with `labeling` ITS canonical labeling).
/// Interns subdivision vertices into task.pool with exactly the encoding
/// subdivide_once uses, so the result is facet-for-facet equal to a cold
/// chromatic_subdivision of this task. `out[0]` is the identity
/// subdivision; false on any malformed input. At most `max_levels` levels
/// are materialized (a deeper stored tower is truncated, not rejected —
/// interning vertices beyond the live budget would perturb pool state).
bool load_ladder_levels(const Task& task, const CanonicalLabeling& labeling,
                        const std::string& body,
                        std::vector<SubdividedComplex>* out,
                        std::size_t max_levels = SIZE_MAX);

/// Serializes the Δ carrier map in canonical index space.
std::string serialize_delta_images(const Task& task,
                                   const CanonicalLabeling& labeling);

/// Reconstructs Δ rows against an isomorphic task: (domain simplex, image
/// facets) pairs over `task`'s own vertex ids.
bool load_delta_images(
    const Task& task, const CanonicalLabeling& labeling,
    const std::string& body,
    std::vector<std::pair<Simplex, std::vector<Simplex>>>* out);

}  // namespace trichroma::io
