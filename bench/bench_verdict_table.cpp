// Headline reproduction: the solvability landscape of every task the paper
// discusses (and the calibration tasks), decided by the Theorem 5.1
// pipeline — a summary "Table 1" the paper itself presents only in prose.

#include "bench_util.h"
#include "solver/pipeline.h"
#include "tasks/zoo.h"

namespace {

using namespace trichroma;

void reproduce() {
  benchutil::header("Verdict table", "the full decision procedure on the zoo");
  std::printf("%-32s %-12s %7s %6s %s\n", "task", "verdict", "radius", "viaT'",
              "reason");
  for (const zoo::CatalogEntry& entry : zoo::catalog()) {
    const Task t = entry.build();
    const PipelineReport r = run_pipeline(t).report;
    std::printf("%-32s %-12s %7d %6s %.70s\n", t.name.c_str(),
                to_string(r.verdict), r.radius,
                r.via_characterization ? "yes" : "no", r.reason.c_str());
  }
}

void BM_FullZooVerdicts(benchmark::State& state) {
  for (auto _ : state) {
    int solvable = 0;
    for (const Task& t :
         {zoo::identity_task(), zoo::consensus(3), zoo::hourglass()}) {
      if (run_pipeline(t).report.verdict == Verdict::Solvable) ++solvable;
    }
    benchmark::DoNotOptimize(solvable);
  }
}
BENCHMARK(BM_FullZooVerdicts);

}  // namespace

int main(int argc, char** argv) {
  return trichroma::benchutil::bench_main(argc, argv, reproduce);
}
