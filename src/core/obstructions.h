#pragma once
// Impossibility engines.
//
// Existence of a continuous map |I| → |O'| carried by Δ' is undecidable in
// general, so impossibility is certified by *sound* decidable conditions:
//
//  1. corollary_5_5 — the paper's Corollary 5.5, verbatim: some input facet
//     σ has an edge {x, x'} such that every path between Δ(x) and Δ(x') in
//     Δ({x, x'}) crosses through a LAP w.r.t. σ (three consecutive vertices
//     w1, y, w2 with w1, w2 in different components of lk_{Δ(σ)}(y)).
//
//  2. corollary_5_6 — the paper's Corollary 5.6 for single-facet inputs:
//     every cycle in Δ(Skel¹ I) goes through a LAP, certified by showing the
//     LAP-split graph of Δ(Skel¹ σ) is a forest AND no crossing-free
//     carrier-respecting boundary walk can close up.
//
//  3. connectivity_csp — the 1-dimensional shadow of a continuous map:
//     choose f(x) ∈ Δ(x) for every input vertex such that for every input
//     edge {x, x'}, f(x) and f(x') lie in one connected component of
//     Δ({x, x'}). Infeasibility proves unsolvability. For two-process tasks
//     this is exact (Proposition 5.4): feasible ⟺ solvable.
//
//  4. homology_boundary_check — the contractibility-type obstruction: for
//     every CSP-feasible corner assignment and every input facet σ, the
//     boundary loop (corner-to-corner paths inside the edge images) must be
//     null-homologous over GF(2) and GF(3) in Δ(σ), modulo cycles
//     supported in the edge images. A loop extending over the input disk is
//     null-homotopic, hence bounds over every coefficient field, so "never
//     bounds" is a sound impossibility certificate (catches 2-set
//     agreement, pinwheel, non-contractible loop agreement).
//
// Engines 3 and 4 are most powerful on the *split, link-connected* task T′
// (Theorem 5.1 reduces solvability of T to colorless solvability of T′);
// engines 1 and 2 are the paper's pre-split statements.

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "tasks/task.h"

namespace trichroma {

struct CorollaryResult {
  bool fires = false;  ///< true ⇒ the task is wait-free unsolvable
  std::string detail;
};

CorollaryResult corollary_5_5(const Task& task);
CorollaryResult corollary_5_6(const Task& task);

/// Default backtracking budget for the corner-assignment engines; far above
/// anything the zoo needs (the largest zoo CSP explores a few hundred nodes).
constexpr std::size_t kDefaultCornerNodeCap = 2'000'000;

struct ConnectivityCsp {
  bool feasible = false;
  bool exhausted = true;  ///< false if the search hit its node cap
  /// Corner-assignment backtracking nodes visited.
  std::size_t nodes_explored = 0;
  /// A satisfying corner assignment x ↦ f(x), when feasible.
  std::unordered_map<VertexId, VertexId, VertexIdHash> witness;
  std::string detail;
};

/// `node_cap` bounds the corner-assignment backtracking.
ConnectivityCsp connectivity_csp(const Task& task,
                                 std::size_t node_cap = kDefaultCornerNodeCap);

struct HomologyObstruction {
  bool feasible = false;  ///< some corner assignment passes every facet
  bool exhausted = true;
  /// Corner-assignment backtracking nodes visited.
  std::size_t nodes_explored = 0;
  std::string detail;
};

/// `primes`: the coefficient fields the boundary loop is required to bound
/// over. Any prime yields a sound certificate; {2, 3} (the default) also
/// catches even-winding failures that GF(2) alone cannot see (see
/// zoo::twisted_hourglass and the ablation bench). Each (facet, prime)
/// span is reduced once per call, on first use, from the facet's cells,
/// gathered once for all primes, and reused for every later corner
/// assignment. Budget as in connectivity_csp.
HomologyObstruction homology_boundary_check(
    const Task& task, const std::vector<long long>& primes = {2, 3},
    std::size_t node_cap = kDefaultCornerNodeCap);

}  // namespace trichroma
