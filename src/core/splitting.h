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
//    rewired images of the input simplices containing it, which relaxes
//    vertex-level monotonicity (DESIGN.md §8, deviation 1);
//  - for τ ⊄ σ, a facet ρ ∋ y is replaced by one copy *per* component
//    (all y_i), since the task being canonical guarantees ρ ∉ Δ(σ).
//
// The split is local to the star of y: only the Δ rows whose images
// contain y change, and split_lap_in_place rewrites exactly those rows.
// O_y is the union of the rewired images, a function of Δ_y, so the
// in-place split leaves O to its caller: make_link_connected derives O′
// once after its last split, and split_lap, the copying form, derives it
// for its one split. Lemma 4.1: the split strictly decreases the number of
// LAPs w.r.t. σ and never creates LAPs w.r.t. facets that had none.
// Lemma 4.2: it preserves solvability in both directions. Both are
// verified by tests.

#include <vector>

#include "core/lap.h"
#include "tasks/task.h"

namespace trichroma {

struct SplitResult {
  Task task;                     ///< T_y, sharing the original vertex pool
  VertexId original;             ///< the split vertex y
  std::vector<VertexId> copies;  ///< y_1, ..., y_r in component order
};

/// Rewrites Δ and the name of `task` into those of T_y for `lap`, in
/// place, and returns the copies y_1, ..., y_r in component order.
/// `task.output` is left as it was: setting it to
/// `task.delta.reachable_output(task.input)` is the caller's job, once
/// after the last split. Preconditions: `task` is canonical
/// (Task::is_canonical()) and `lap.link_components` are the current
/// components of lk_{Δ(σ)}(y), ordered as find_laps reports them.
std::vector<VertexId> split_lap_in_place(Task& task, const LapRecord& lap);

/// Copies `task`, applies split_lap_in_place to the copy and derives the
/// copy's output complex from its Δ.
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
