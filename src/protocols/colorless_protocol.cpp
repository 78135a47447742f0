#include "protocols/colorless_protocol.h"

#include "solver/engine.h"

namespace trichroma::protocols {

std::optional<ColorlessAlgorithm> synthesize_colorless(const Task& task,
                                                       int max_radius,
                                                       std::size_t node_cap) {
  ProbeEngine probe(task, ProbeKind::ColorlessDirect);
  probe.run(EngineBudget{.max_radius = max_radius, .node_cap = node_cap},
            CancellationToken{});
  if (!probe.found()) return std::nullopt;
  return ColorlessAlgorithm{probe.found_radius(), probe.witness()};
}

}  // namespace trichroma::protocols
