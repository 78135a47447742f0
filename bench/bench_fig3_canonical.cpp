// Figures 3–4 reproduction: the canonical-form transformation.
//
// Paper claims reproduced here:
//  - the running-example task has a facet (the "green" one) shared between
//    Δ(σ) and Δ(σ'), so it is not canonical;
//  - the canonical form T* replaces each shared image by one copy per input
//    facet (the product with the input), after which Δ* is one-to-one
//    (Claim 1's precondition) while solvability is unchanged (Theorem 3.1);
//  - canonicalization statistics across the zoo show the output complex
//    growth is bounded by the number of (input facet, image) pairs.

#include "bench_util.h"
#include "solver/pipeline.h"
#include "tasks/canonical.h"
#include "tasks/zoo.h"

namespace {

using namespace trichroma;

void reproduce() {
  benchutil::header("Figures 3-4", "canonical tasks");
  const Task task = zoo::fig3_running_example();
  VertexPool& pool = *task.pool;
  std::printf("%s", task.summary().c_str());

  benchutil::section("Figure 3: the task and its shared green facet");
  std::printf("output facets:\n%s", task.output.to_string(pool).c_str());
  for (const Simplex& sigma : task.input.simplices(2)) {
    std::printf("Δ(%s):\n", sigma.to_string(pool).c_str());
    for (const Simplex& im : task.delta.facet_images(sigma)) {
      std::printf("  %s\n", im.to_string(pool).c_str());
    }
  }
  std::printf("canonical: %s\n", task.is_canonical() ? "yes" : "no");

  benchutil::section("Figure 4: the canonical form T*");
  const Task star = canonicalize(task);
  std::printf("output facets of O* (the green facet became two):\n%s",
              star.output.to_string(pool).c_str());
  std::printf("canonical: %s\n", star.is_canonical() ? "yes" : "no");

  benchutil::section("Theorem 3.1: solvability is unchanged");
  std::printf("T  verdict: %s\n",
              to_string(run_pipeline(task).report.verdict));
  std::printf("T* verdict: %s\n",
              to_string(run_pipeline(star).report.verdict));

  benchutil::section("canonicalization growth across the zoo");
  const std::vector<Task> tasks = {zoo::consensus(3), zoo::majority_consensus(),
                                   zoo::set_agreement_32(), zoo::pinwheel()};
  std::printf("%-22s %14s %14s %10s\n", "task", "|O| triangles", "|O*| triangles",
              "canonical");
  for (const Task& t : tasks) {
    const Task s = canonicalize(t);
    std::printf("%-22s %14zu %14zu %6s->%s\n", t.name.c_str(), t.output.count(2),
                s.output.count(2), t.is_canonical() ? "yes" : "no",
                s.is_canonical() ? "yes" : "no");
  }
}

void BM_CanonicalizeFig3(benchmark::State& state) {
  const Task task = zoo::fig3_running_example();
  for (auto _ : state) {
    benchmark::DoNotOptimize(canonicalize(task).output.count(2));
  }
}
BENCHMARK(BM_CanonicalizeFig3);

void BM_CanonicalizeConsensus(benchmark::State& state) {
  const Task task = zoo::consensus(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(canonicalize(task).output.count(2));
  }
}
BENCHMARK(BM_CanonicalizeConsensus);

void BM_CanonicalizeSetAgreement(benchmark::State& state) {
  const Task task = zoo::set_agreement_32();
  for (auto _ : state) {
    benchmark::DoNotOptimize(canonicalize(task).output.count(2));
  }
}
BENCHMARK(BM_CanonicalizeSetAgreement);

}  // namespace

int main(int argc, char** argv) {
  return trichroma::benchutil::bench_main(argc, argv, reproduce);
}
