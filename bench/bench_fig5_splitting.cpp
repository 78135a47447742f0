// Figure 5 reproduction: the splitting deformation.
//
// Paper content reproduced here:
//  - a vertex y whose link lk_{Δ(σ)}(y) has r components is replaced by
//    copies y_1..y_r, each inheriting one component (Fig. 5's schematic);
//  - Lemma 4.1: the LAP count w.r.t. σ strictly decreases, and no clean
//    facet regresses;
//  - scaling: splitting cost as a function of link size, measured on the
//    fan-task family and on random pinched complexes.

#include "bench_util.h"
#include "core/link_connected.h"
#include "core/splitting.h"
#include "tasks/canonical.h"
#include "tasks/zoo.h"
#include "topology/graph.h"

namespace {

using namespace trichroma;

/// A synthetic "pinched star": two fans glued at their centers — the
/// center's link is two disjoint paths, so it is a LAP with two components
/// whose sizes scale with `arm`.
Task pinched_star(int arm) {
  // Build from two fan tasks' worth of triangles sharing the center.
  Task task;
  task.pool = std::make_shared<VertexPool>();
  task.name = "pinched-star-" + std::to_string(arm);
  task.num_processes = 3;
  VertexPool& pool = *task.pool;
  ValuePool& vals = pool.values();
  auto in_vertex = [&](Color c) {
    return pool.vertex(c, vals.of_tuple({vals.of_string("in"), vals.of_int(c)}));
  };
  auto out_vertex = [&](Color c, std::int64_t v) {
    return pool.vertex(c, vals.of_tuple({vals.of_string("out"), vals.of_int(v)}));
  };
  const VertexId x0 = in_vertex(0), x1 = in_vertex(1), x2 = in_vertex(2);
  task.input.add(Simplex{x0, x1, x2});

  const VertexId center = out_vertex(0, 0);
  std::vector<Simplex> triangles;
  std::vector<Simplex> spokes01, spokes02, rim_edges;
  std::vector<Simplex> rim1, rim2;
  for (int side = 0; side < 2; ++side) {
    std::vector<VertexId> rim;
    for (int i = 0; i <= arm; ++i) {
      rim.push_back(out_vertex(i % 2 == 0 ? 1 : 2, 1000 * side + i + 1));
    }
    for (int i = 0; i < arm; ++i) {
      triangles.push_back(Simplex{center, rim[static_cast<std::size_t>(i)],
                                  rim[static_cast<std::size_t>(i + 1)]});
      rim_edges.push_back(Simplex{rim[static_cast<std::size_t>(i)],
                                  rim[static_cast<std::size_t>(i + 1)]});
    }
    for (VertexId v : rim) {
      (pool.color(v) == 1 ? spokes01 : spokes02).push_back(Simplex{center, v});
      (pool.color(v) == 1 ? rim1 : rim2).push_back(Simplex::single(v));
    }
  }
  for (const Simplex& t : triangles) task.output.add(t);
  task.delta.set(Simplex::single(x0), {Simplex::single(center)});
  task.delta.set(Simplex::single(x1), rim1);
  task.delta.set(Simplex::single(x2), rim2);
  task.delta.set(Simplex{x0, x1}, spokes01);
  task.delta.set(Simplex{x0, x2}, spokes02);
  task.delta.set(Simplex{x1, x2}, rim_edges);
  task.delta.set(Simplex{x0, x1, x2}, triangles);
  return task;
}

void reproduce() {
  benchutil::header("Figure 5", "the splitting deformation");
  benchutil::section("splitting a pinched star (two components at the waist)");
  std::printf("%-6s %10s %12s %12s %12s\n", "arm", "link size", "LAPs before",
              "LAPs after", "components");
  for (int arm : {2, 4, 8, 16, 32}) {
    const Task task = pinched_star(arm);
    const auto laps = find_all_laps(task);
    const std::size_t link_size = laps.empty() ? 0 : laps[0].link.vertices.size();
    const LinkConnectedResult lc = make_link_connected(task);
    std::printf("%-6d %10zu %12zu %12zu %12zu\n", arm, link_size, laps.size(),
                find_all_laps(lc.task).size(),
                component_count(lc.task.output));
  }
  std::printf("(the y vertex splits into one copy per component; the two fans\n"
              " separate — exactly Fig. 5's schematic)\n");

  benchutil::section("Lemma 4.1 on the pinwheel: strict decrease, no regressions");
  Task t = canonicalize(zoo::pinwheel());
  std::size_t step = 0;
  while (true) {
    const auto laps = find_all_laps(t);
    std::printf("  step %zu: %zu LAPs\n", step, laps.size());
    if (laps.empty()) break;
    t = split_lap(t, laps.front()).task;
    ++step;
  }
}

void BM_SplitPinchedStar(benchmark::State& state) {
  const Task task = pinched_star(static_cast<int>(state.range(0)));
  const auto laps = find_all_laps(task);
  for (auto _ : state) {
    benchmark::DoNotOptimize(split_lap(task, laps.front()).task.output.count(2));
  }
  state.counters["arm"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SplitPinchedStar)->Arg(4)->Arg(16)->Arg(64);

void BM_MakeLinkConnectedPinwheel(benchmark::State& state) {
  const Task star = canonicalize(zoo::pinwheel());
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_link_connected(star).history.size());
  }
}
BENCHMARK(BM_MakeLinkConnectedPinwheel);

}  // namespace

int main(int argc, char** argv) {
  return trichroma::benchutil::bench_main(argc, argv, reproduce);
}
