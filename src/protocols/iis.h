#pragma once
// The full-information iterated immediate snapshot (IIS) protocol.
//
// Each round, a process writes its current knowledge into a fresh one-shot
// immediate-snapshot object and takes the immediate snapshot; its knowledge
// becomes the view (set of values seen). After r rounds the views of all
// processes form a facet of Ch^r(I), the r-fold standard chromatic
// subdivision — the protocol vertex is interned through the same
// ViewInterner as topology/subdivision.h, so the combinatorial subdivision
// and the operational protocol coincide vertex-for-vertex (a property the
// tests verify by exhaustive schedule enumeration).
//
// Supplying a decision map (a solver witness δ : Ch^r(I) → O) turns the
// protocol into a wait-free solution of the task: decide δ(final view).

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "runtime/shared_memory.h"
#include "runtime/system.h"
#include "topology/chromatic.h"
#include "topology/vertex.h"

namespace trichroma::protocols {

/// One immediate-snapshot object per round, shared by the participants.
struct IisShared {
  IisShared(int n, int rounds) {
    for (int r = 0; r < rounds; ++r) objects.emplace_back(n);
  }
  std::vector<runtime::ImmediateSnapshotObject<std::uint32_t>> objects;
};

struct IisOutcome {
  std::optional<VertexId> view;      ///< final Ch^r(I) vertex
  std::optional<VertexId> decision;  ///< δ(view) when a map was supplied
};

/// The protocol coroutine for one process. All references must outlive the
/// execution. `decision_map` may be null (full-information only).
runtime::ProcessBody iis_process(IisShared& shared, VertexPool& pool, int pid,
                                 VertexId input, int rounds,
                                 const VertexMap* decision_map, IisOutcome& out);

/// Runs the IIS protocol for the given (pid, input vertex) participants
/// under `schedule` (falling back to round-robin when it runs out), and
/// returns their outcomes indexed like `inputs`.
std::vector<IisOutcome> run_iis(VertexPool& pool,
                                const std::vector<std::pair<int, VertexId>>& inputs,
                                int rounds, const VertexMap* decision_map,
                                const runtime::Schedule& schedule);

}  // namespace trichroma::protocols
