// Substrate benchmarks: the shared-memory model's reduction stack (§2.1 of
// the paper) measured end to end — primitive objects, the Afek et al.
// register-based snapshot, the Borowsky–Gafni immediate snapshot, and the
// full registers→Ch^r pipeline — plus the *geometry* substrate: the
// compiled (flat CSR) snapshot vs the hash-set
// SimplicialComplex on the enumeration loops the solver actually runs
// (per-vertex link components, the LAP scan, membership floods).

#include <random>

#include "bench_util.h"
#include "core/lap.h"
#include "protocols/iis.h"
#include "runtime/derived_objects.h"
#include "runtime/system.h"
#include "tasks/zoo.h"
#include "topology/compiled.h"
#include "topology/graph.h"
#include "topology/subdivision.h"

namespace {

using namespace trichroma;
using namespace trichroma::runtime;

ProcessBody afek_workload(AfekSnapshot<int>& snap, int pid, int rounds) {
  for (int r = 0; r < rounds; ++r) {
    typename AfekSnapshot<int>::Update update(snap, pid, r);
    while (!update.done()) {
      co_await Turn{OpPhase::Single};
      update.step();
    }
    typename AfekSnapshot<int>::Scan scan(snap);
    while (!scan.done()) {
      co_await Turn{OpPhase::Single};
      scan.step();
    }
  }
}

ProcessBody bg_workload(BgImmediateSnapshot<int>& obj, int pid) {
  typename BgImmediateSnapshot<int>::WriteSnapshot op(obj, pid, pid);
  while (!op.done()) {
    co_await Turn{OpPhase::Single};
    op.step();
  }
}

void reproduce() {
  benchutil::header("Substrate", "the read/write reduction stack, executable");
  benchutil::section("what runs below the topology");
  std::printf(
      "registers --Afek'93--> atomic snapshot --BG'93--> immediate snapshot\n"
      "          --iterate--> Ch^r views --decision map--> task outputs\n"
      "Tests cross-validate every layer (runtime_derived_test); timings "
      "below.\n");
}

void BM_PrimitiveIisRound(benchmark::State& state) {
  VertexPool pool;
  const VertexId x0 = pool.vertex(0, 0), x1 = pool.vertex(1, 1),
                 x2 = pool.vertex(2, 2);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    protocols::IisShared shared(3, 2);
    std::vector<protocols::IisOutcome> outcomes(3);
    std::vector<ProcessBody> procs;
    procs.push_back(protocols::iis_process(shared, pool, 0, x0, 2, nullptr, outcomes[0]));
    procs.push_back(protocols::iis_process(shared, pool, 1, x1, 2, nullptr, outcomes[1]));
    procs.push_back(protocols::iis_process(shared, pool, 2, x2, 2, nullptr, outcomes[2]));
    Executor ex(std::move(procs));
    std::mt19937_64 rng(seed++);
    ex.run_random(rng);
    benchmark::DoNotOptimize(outcomes[0].view);
  }
}
BENCHMARK(BM_PrimitiveIisRound);

void BM_AfekSnapshotWorkload(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    AfekSnapshot<int> snap(3);
    std::vector<ProcessBody> procs;
    for (int i = 0; i < 3; ++i) procs.push_back(afek_workload(snap, i, 3));
    Executor ex(std::move(procs));
    std::mt19937_64 rng(seed++);
    ex.run_random(rng, 0.0, 1'000'000);
    benchmark::DoNotOptimize(ex.steps_taken());
  }
}
BENCHMARK(BM_AfekSnapshotWorkload);

void BM_BgImmediateSnapshot(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    BgImmediateSnapshot<int> obj(3);
    std::vector<ProcessBody> procs;
    for (int i = 0; i < 3; ++i) procs.push_back(bg_workload(obj, i));
    Executor ex(std::move(procs));
    std::mt19937_64 rng(seed++);
    ex.run_random(rng, 0.0, 1'000'000);
    benchmark::DoNotOptimize(ex.steps_taken());
  }
}
BENCHMARK(BM_BgImmediateSnapshot);

void BM_ExhaustiveIisSchedules(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  VertexPool pool;
  const VertexId x0 = pool.vertex(0, 0), x1 = pool.vertex(1, 1),
                 x2 = pool.vertex(2, 2);
  for (auto _ : state) {
    std::size_t executions = 0;
    for (const auto& schedule : all_iis_schedules({0, 1, 2}, rounds)) {
      const auto outcomes = protocols::run_iis(
          pool, {{0, x0}, {1, x1}, {2, x2}}, rounds, nullptr, schedule);
      executions += outcomes.size();
    }
    benchmark::DoNotOptimize(executions);
  }
  state.counters["schedules"] =
      static_cast<double>(all_iis_schedules({0, 1, 2}, rounds).size());
}
BENCHMARK(BM_ExhaustiveIisSchedules)->Arg(1)->Arg(2);

// ---------------------------------------------------------------------------
// Geometry substrate: compiled snapshot vs hash-set complex. Each pair runs
// the same enumeration; "Hashed" is the pre-compilation implementation
// (build a SimplicialComplex link / hash every membership probe), "Compiled"
// is the CSR path the solver now uses.
// ---------------------------------------------------------------------------

SubdividedComplex subdivided_triangle(VertexPool& pool, int rounds) {
  SimplicialComplex base;
  base.add(Simplex{pool.vertex(0, 0), pool.vertex(1, 1), pool.vertex(2, 2)});
  return chromatic_subdivision(pool, base, rounds);
}

// Per-vertex link component counting over Ch^r(σ²) — the inner loop of
// is_link_connected and of the LAP scan.
void BM_LinkComponentsHashed(benchmark::State& state) {
  VertexPool pool;
  const SubdividedComplex sub =
      subdivided_triangle(pool, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::size_t total = 0;
    for (VertexId v : sub.complex.vertex_ids()) {
      const SimplicialComplex link = sub.complex.link(v);
      if (link.empty()) continue;
      total += connected_components(link).size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.counters["vertices"] = static_cast<double>(sub.complex.count(0));
}
BENCHMARK(BM_LinkComponentsHashed)->Arg(1)->Arg(2);

void BM_LinkComponentsCompiled(benchmark::State& state) {
  VertexPool pool;
  const SubdividedComplex sub =
      subdivided_triangle(pool, static_cast<int>(state.range(0)));
  const auto& c = *sub.compiled;
  for (auto _ : state) {
    std::size_t total = 0;
    const auto nv = static_cast<CompiledComplex::Local>(c.num_vertices());
    for (CompiledComplex::Local v = 0; v < nv; ++v) {
      total += c.link_component_count(v);
    }
    benchmark::DoNotOptimize(total);
  }
  state.counters["vertices"] = static_cast<double>(c.num_vertices());
}
BENCHMARK(BM_LinkComponentsCompiled)->Arg(1)->Arg(2);

// The full LAP scan over a task's facet images. "Hashed" replicates the
// pre-compilation find_laps (materialize each link, flood components);
// "Compiled" is core/lap.cpp as shipped. Pinwheel is the paper's LAP
// showcase (six LAPs across the image of its single facet family).
void BM_LapScanHashed(benchmark::State& state) {
  const Task task = zoo::pinwheel();
  const int top = task.input.dimension();
  for (auto _ : state) {
    std::size_t laps = 0;
    for (const Simplex& sigma : task.input.simplices(top)) {
      const SimplicialComplex image = task.delta.image_complex(sigma);
      for (VertexId y : image.vertex_ids()) {
        const SimplicialComplex link = image.link(y);
        if (link.empty()) continue;
        const auto components = connected_components(link);
        if (components.size() < 2) continue;
        ++laps;
        benchmark::DoNotOptimize(components);
      }
    }
    benchmark::DoNotOptimize(laps);
  }
}
BENCHMARK(BM_LapScanHashed);

void BM_LapScanCompiled(benchmark::State& state) {
  const Task task = zoo::pinwheel();
  for (auto _ : state) {
    const auto laps = find_all_laps(task);
    benchmark::DoNotOptimize(laps);
  }
}
BENCHMARK(BM_LapScanCompiled);

// Membership floods: every stored simplex probed once. The hashed side
// hashes a Simplex key per probe; the compiled side binary-searches flat
// tables.
void BM_ContainsFloodHashed(benchmark::State& state) {
  VertexPool pool;
  const SubdividedComplex sub =
      subdivided_triangle(pool, static_cast<int>(state.range(0)));
  const std::vector<Simplex> all = sub.complex.all_simplices();
  for (auto _ : state) {
    std::size_t hits = 0;
    for (const Simplex& s : all) hits += sub.complex.contains(s);
    benchmark::DoNotOptimize(hits);
  }
  state.counters["simplices"] = static_cast<double>(all.size());
}
BENCHMARK(BM_ContainsFloodHashed)->Arg(1)->Arg(2);

void BM_ContainsFloodCompiled(benchmark::State& state) {
  VertexPool pool;
  const SubdividedComplex sub =
      subdivided_triangle(pool, static_cast<int>(state.range(0)));
  const std::vector<Simplex> all = sub.complex.all_simplices();
  const auto& c = *sub.compiled;
  for (auto _ : state) {
    std::size_t hits = 0;
    for (const Simplex& s : all) hits += c.contains(s);
    benchmark::DoNotOptimize(hits);
  }
  state.counters["simplices"] = static_cast<double>(all.size());
}
BENCHMARK(BM_ContainsFloodCompiled)->Arg(1)->Arg(2);

// What building the flat form costs: of_facets over a facet list (closure
// expansion, one sort + CSR build), as the Δ-image cache and LAP scans pay
// per image; the subdivision ladder streams into a Builder instead. The
// facet list is computed outside the timed loop.
void BM_CompileSnapshot(benchmark::State& state) {
  VertexPool pool;
  const SubdividedComplex sub =
      subdivided_triangle(pool, static_cast<int>(state.range(0)));
  const std::vector<Simplex> facets = sub.complex.facets();
  for (auto _ : state) {
    auto c = CompiledComplex::of_facets(facets);
    benchmark::DoNotOptimize(c->num_edges());
  }
}
BENCHMARK(BM_CompileSnapshot)->Arg(1)->Arg(2);

}  // namespace

int main(int argc, char** argv) {
  return trichroma::benchutil::bench_main(argc, argv, reproduce);
}
