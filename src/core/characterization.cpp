#include "core/characterization.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tasks/canonical.h"

namespace trichroma {

CharacterizationResult characterize(const Task& task) {
  static obs::Counter& split_counter =
      obs::MetricsRegistry::global().counter("core.splits");
  CharacterizationResult result;
  {
    TRI_SPAN("core/canonicalize");
    result.canonical = canonicalize(task);
  }
  {
    TRI_SPAN("topology/betti");
    result.output_betti_before = betti_numbers(result.canonical.output);
  }
  {
    TRI_SPAN("core/split");
    LinkConnectedResult lc = make_link_connected(result.canonical);
    result.link_connected = std::move(lc.task);
    result.splits = std::move(lc.history);
  }
  split_counter.add(result.splits.size());
  if (result.splits.empty()) {
    // No split: T' = T*.
    result.output_betti_after = result.output_betti_before;
  } else {
    TRI_SPAN("topology/betti");
    result.output_betti_after = betti_numbers(result.link_connected.output);
  }
  // b0 counts the connected components.
  result.output_components_before =
      static_cast<std::size_t>(result.output_betti_before.b0);
  result.output_components_after =
      static_cast<std::size_t>(result.output_betti_after.b0);
  return result;
}

std::string CharacterizationResult::report(const VertexPool& pool) const {
  std::string out;
  out += "canonical task T*: " + std::to_string(canonical.output.count(0)) +
         " output vertices, " + std::to_string(canonical.output.count(2)) +
         " output triangles\n";
  out += "splits performed: " + std::to_string(splits.size()) + "\n";
  for (const SplitEvent& s : splits) {
    out += "  split " + pool.name(s.vertex) + " (w.r.t. " +
           s.facet.to_string(pool) + ") into " +
           std::to_string(s.component_count) + " copies\n";
  }
  out += "output complex components: " + std::to_string(output_components_before) +
         " -> " + std::to_string(output_components_after) + "\n";
  out += "output Betti numbers (GF(2)): b0 " +
         std::to_string(output_betti_before.b0) + " -> " +
         std::to_string(output_betti_after.b0) + ", b1 " +
         std::to_string(output_betti_before.b1) + " -> " +
         std::to_string(output_betti_after.b1) + "\n";
  out += "link-connected: yes\n";  // Theorem 4.3; make_link_connected asserts it
  return out;
}

}  // namespace trichroma
