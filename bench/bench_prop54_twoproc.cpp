// Proposition 5.4 reproduction: two-process tasks are solvable iff there is
// a continuous map |I| → |O| carried by Δ — decided exactly by the
// connectivity CSP (choose a corner per input vertex, connected within each
// edge image). Also exhibits the dimension contrast the paper highlights:
// in dimension one a disconnected link means a disconnected complex, so
// LAPs only become an independent phenomenon with three processes.

#include "bench_util.h"
#include "core/lap.h"
#include "solver/pipeline.h"
#include "tasks/zoo.h"
#include "topology/graph.h"

namespace {

using namespace trichroma;

void reproduce() {
  benchutil::header("Proposition 5.4", "two-process solvability");

  benchutil::section("verdicts");
  std::printf("%-28s %-12s %s\n", "task", "verdict", "reason");
  const std::vector<Task> tasks = {
      zoo::consensus_2(),
      zoo::approximate_agreement_2(1),
      zoo::approximate_agreement_2(2),
      zoo::approximate_agreement_2(4),
  };
  for (const Task& t : tasks) {
    const PipelineReport r = run_pipeline(t).report;
    std::printf("%-28s %-12s %.60s...\n", t.name.c_str(), to_string(r.verdict),
                r.reason.c_str());
  }

  benchutil::section("dimension contrast (§1.3)");
  // For two processes, a LAP (vertex with disconnected link) forces the
  // edge image itself to be disconnected — check on 2-proc consensus.
  const Task c2 = zoo::consensus_2();
  std::size_t laps = 0, disconnected_edges = 0, edges = 0;
  for (const Simplex& e : c2.input.simplices(1)) {
    const SimplicialComplex image = c2.delta.image_complex(e);
    ++edges;
    if (!is_connected(image)) ++disconnected_edges;
    for (VertexId v : image.vertex_ids()) {
      const SimplicialComplex lk = image.link(v);
      if (!lk.empty() && !is_connected(lk)) ++laps;
    }
  }
  std::printf("2-proc consensus: %zu input edges, %zu disconnected images, "
              "%zu vertex-level LAPs\n",
              edges, disconnected_edges, laps);
  std::printf("(in dimension 1, obstruction = plain disconnection; the LAP "
              "phenomenon needs dimension 2)\n");
  const Task pin = zoo::pinwheel();
  std::printf("pinwheel (3 processes): output connected: %s, LAPs: %zu\n",
              is_connected(pin.output) ? "yes" : "no", find_all_laps(pin).size());
}

void BM_TwoProcConsensus(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_pipeline(zoo::consensus_2()).report.verdict);
  }
}
BENCHMARK(BM_TwoProcConsensus);

void BM_TwoProcApproxAgreement(benchmark::State& state) {
  const Task t = zoo::approximate_agreement_2(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_pipeline(t).report.verdict);
  }
}
BENCHMARK(BM_TwoProcApproxAgreement)->Arg(2)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  return trichroma::benchutil::bench_main(argc, argv, reproduce);
}
