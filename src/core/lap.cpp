#include "core/lap.h"

#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "topology/compiled.h"

namespace trichroma {

std::vector<VertexId> lap_vertices(const std::vector<Simplex>& facets) {
  TRI_SPAN("topology/lap_scan");
  static obs::Counter& scans =
      obs::MetricsRegistry::global().counter("topology.lap_scans");
  scans.add();
  std::vector<VertexId> out;
  // One compiled Δ(σ), from its facet list; the per-vertex counts then read
  // its neighbor and triangle rows instead of materializing a
  // SimplicialComplex link each. Locals are in raw-id order, so the LAPs
  // come out in vertex-id order, whatever the order of `facets`.
  const auto image = CompiledComplex::of_facets(facets);
  const auto nv = static_cast<CompiledComplex::Local>(image->num_vertices());
  for (CompiledComplex::Local y = 0; y < nv; ++y) {
    if (image->link_component_count(y) >= 2) out.push_back(image->vertex(y));
  }
  return out;
}

std::vector<LapRecord> find_laps(const Simplex& sigma, const std::vector<Simplex>& facets) {
  std::vector<LapRecord> out;
  for (VertexId y : lap_vertices(facets)) {
    out.push_back(LapRecord{sigma, y, link_labels(facets, y)});
  }
  return out;
}

std::vector<LapRecord> find_laps(const Task& task, const Simplex& sigma) {
  return find_laps(sigma, task.delta.facet_images(sigma));
}

std::vector<LapRecord> find_all_laps(const Task& task) {
  std::vector<LapRecord> out;
  const int top = task.input.dimension();
  for (const Simplex& sigma : task.input.simplices(top)) {
    auto laps = find_laps(task, sigma);
    out.insert(out.end(), std::make_move_iterator(laps.begin()),
               std::make_move_iterator(laps.end()));
  }
  return out;
}

std::optional<LapRecord> first_lap(const Task& task, const Simplex& sigma) {
  auto laps = find_laps(task, sigma);
  if (laps.empty()) return std::nullopt;
  return laps.front();
}

}  // namespace trichroma
