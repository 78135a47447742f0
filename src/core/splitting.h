#pragma once
// The splitting deformation (Section 4.1 of the paper).
//
// Given a canonical task T = (I, O, Δ) and a LAP y w.r.t. input facet σ
// whose link lk_{Δ(σ)}(y) has components C_1, ..., C_r, the deformation
// produces T_y = (I, O_y, Δ_y):
//
//  - y is replaced by fresh copies y_1, ..., y_r (same color);
//  - facets ρ ∈ Δ(τ) with y ∉ ρ are kept unchanged;
//  - for τ ⊆ σ, a facet ρ ∋ y is rewired to the *single* copy y_i of the
//    component C_i containing ρ \ {y} (the paper's "must have z, z' ∈ C_i");
//    the solo case ρ = {y} gets the union of the copies that appear in the
//    rewired images of the input simplices containing it — all of them, as
//    Δ(σ) holds every copy — which relaxes vertex-level monotonicity
//    (DESIGN.md §8, deviation 1);
//  - for τ ⊄ σ, a facet ρ ∋ y is replaced by one copy *per* component
//    (all y_i), since the task being canonical guarantees ρ ∉ Δ(σ).
//
// The split is local to the star of y: only the Δ rows whose images
// contain y change. SplitWorkspace holds Δ as rows indexed by the output
// vertices they hold, so a split visits exactly those rows. O_y is the
// union of the rewired images, a function of Δ_y, so the workspace derives
// it once, when it writes its rows back after the last split. Lemma 4.1:
// the split strictly decreases the number of LAPs w.r.t. σ and never
// creates LAPs w.r.t. facets that had none. Lemma 4.2: it preserves
// solvability in both directions. Both are verified by tests.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/lap.h"
#include "tasks/task.h"

namespace trichroma {

struct SplitResult {
  Task task;                     ///< T_y, sharing the original vertex pool
  VertexId original;             ///< the split vertex y
  std::vector<VertexId> copies;  ///< y_1, ..., y_r in component order
};

/// Δ of a canonical task as rows, one per input simplex τ, that a run of
/// splits rewires in place (Theorem 4.3's loop, or split_lap's one split).
/// A row's facet list stays unsorted while splits run, and an index from
/// each output vertex to the rows whose images contain it confines a split
/// of y to the star of y. finish() writes each touched row back into Δ,
/// sorting it once, and derives O from the result.
class SplitWorkspace {
 public:
  /// Copies Δ of `task` into rows. `task` is canonical and outlives the
  /// workspace; splits append to its name and intern copies in its pool.
  explicit SplitWorkspace(Task& task);

  /// The current facet list of Δ(τ), in no particular order (empty if τ is
  /// no input simplex).
  const std::vector<Simplex>& row(const Simplex& tau) const;

  /// Splits `lap.vertex` w.r.t. `lap.facet`: rewires the rows that hold it
  /// and returns the copies y_1, ..., y_r in component order.
  /// Precondition: `lap.link` is the current lk_{Δ(σ)}(y), link_labels of
  /// σ's row, with at least two components.
  std::vector<VertexId> split(const LapRecord& lap);

  /// Writes the touched rows back into the task's Δ and sets its output
  /// complex to ∪ Δ(τ). Call once, after the last split.
  void finish();

 private:
  struct Row {
    Simplex tau;
    std::vector<Simplex> images;
    bool touched = false;
  };

  /// The rows whose images contain `v`.
  std::vector<std::uint32_t>& holders(VertexId v);
  /// Records that row `id` holds `v`. Rows are rewired one at a time, so a
  /// row already recorded is the list's last entry.
  void add_holder(VertexId v, std::uint32_t id);

  Task& task_;
  std::vector<Row> rows_;
  std::unordered_map<Simplex, std::uint32_t, SimplexHash> row_of_;
  /// holders_[raw(v) - base_]. Every vertex a row holds is interned at or
  /// after base_, the smallest id in Δ, split copies included: a copy of y
  /// is interned after y.
  std::vector<std::vector<std::uint32_t>> holders_;
  std::uint32_t base_ = 0;
};

/// Throws std::logic_error, naming `caller`, unless the input facets that
/// Theorem 4.3 scans (the top-dimensional ones) are triangles: Section 4's
/// splitting, with Lemmas 4.1 and 4.2, is stated for three processes.
void require_triangle_inputs(const Task& task, const char* caller);

/// Copies `task`, splits `lap` in the copy through a SplitWorkspace and
/// derives the copy's output complex from its Δ. Preconditions as for
/// SplitWorkspace::split; refuses a task whose input facets are not
/// triangles (require_triangle_inputs).
SplitResult split_lap(const Task& task, const LapRecord& lap);

/// Interns the i-th split copy (1-based) of `y`: (color(y), ("split", raw(y), i)).
VertexId split_copy(VertexPool& pool, VertexId y, int i);

/// True iff `v` is a split copy produced by `split_copy`.
bool is_split_vertex(const VertexPool& pool, VertexId v);

/// The vertex a split copy was made from (one level of unwrapping).
VertexId split_parent(VertexPool& pool, VertexId v);

/// Fully unwraps nested split copies back to the original output vertex.
VertexId split_root(VertexPool& pool, VertexId v);

}  // namespace trichroma
