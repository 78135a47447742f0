// Figure 6 reproduction: splitting preserves solvability (Lemma 4.2).
//
// The figure illustrates the two cases of the proof (τ ⊆ σ and τ ⊄ σ).
// Executable counterpart: across the zoo and a random-task sweep, the
// solvability evidence must stay consistent through the split pipeline —
// a chromatic decision map for T implies a color-agnostic one for T', and
// an obstruction on T' implies no map for T exists.

#include "bench_util.h"
#include "core/characterization.h"
#include "core/obstructions.h"
#include "protocols/colorless_protocol.h"
#include "solver/pipeline.h"
#include "tasks/zoo.h"

namespace {

using namespace trichroma;

void reproduce() {
  benchutil::header("Figure 6", "splitting preserves solvability (Lemma 4.2)");

  benchutil::section("zoo tasks through the pipeline");
  std::printf("%-28s %12s %14s %14s\n", "task", "direct", "T' obstructed",
              "T' colorless");
  const std::vector<Task> tasks = {
      zoo::identity_task(),       zoo::subdivision_task(1),
      zoo::approximate_agreement(2), zoo::renaming(5),
      zoo::consensus(3),          zoo::majority_consensus(),
      zoo::hourglass(),           zoo::pinwheel(),
      zoo::set_agreement_32(),
  };
  for (const Task& t : tasks) {
    SolvabilityOptions options;
    options.max_radius = 1;
    options.use_characterization = false;
    const PipelineReport direct = run_pipeline(t, options).report;
    const CharacterizationResult c = characterize(t);
    const bool obstructed = !connectivity_csp(c.link_connected).feasible ||
                            !homology_boundary_check(c.link_connected).feasible;
    const auto colorless =
        protocols::synthesize_colorless(c.link_connected, 1, 2'000'000);
    std::printf("%-28s %12s %14s %14s\n", t.name.c_str(),
                direct.verdict == Verdict::Solvable ? "solvable" : "no-map(r<=1)",
                obstructed ? "yes" : "no",
                colorless.has_value() ? "solvable" : "no-map(r<=1)");
    // Consistency (Lemma 4.2): never "solvable" on one side and
    // "obstructed" on the other.
    if (direct.verdict == Verdict::Solvable && obstructed) {
      std::printf("  !! INCONSISTENT — Lemma 4.2 violated\n");
    }
    if (colorless.has_value() && obstructed) {
      std::printf("  !! INCONSISTENT — obstruction vs colorless witness\n");
    }
  }

  benchutil::section("random-task sweep");
  int solvable_consistent = 0, obstructed_consistent = 0, inconsistent = 0,
      undecided = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    zoo::RandomTaskParams params;
    params.seed = seed;
    params.num_input_facets = 1 + static_cast<int>(seed % 3);
    const Task t = zoo::random_task(params);
    SolvabilityOptions options;
    options.max_radius = 1;
    options.use_characterization = false;
    const bool direct = run_pipeline(t, options).report.verdict == Verdict::Solvable;
    const CharacterizationResult c = characterize(t);
    const bool obstructed = !connectivity_csp(c.link_connected).feasible ||
                            !homology_boundary_check(c.link_connected).feasible;
    if (direct && obstructed) {
      ++inconsistent;
    } else if (direct) {
      ++solvable_consistent;
    } else if (obstructed) {
      ++obstructed_consistent;
    } else {
      ++undecided;
    }
  }
  std::printf("seeds: 60  solvable: %d  obstructed: %d  undecided: %d  "
              "INCONSISTENT: %d\n",
              solvable_consistent, obstructed_consistent, undecided, inconsistent);
  std::printf("(Lemma 4.2 holds iff the inconsistent count is 0)\n");
}

void BM_PreservationCheckRandom(benchmark::State& state) {
  zoo::RandomTaskParams params;
  params.seed = 7;
  const Task t = zoo::random_task(params);
  for (auto _ : state) {
    const CharacterizationResult c = characterize(t);
    benchmark::DoNotOptimize(connectivity_csp(c.link_connected).feasible);
  }
}
BENCHMARK(BM_PreservationCheckRandom);

}  // namespace

int main(int argc, char** argv) {
  return trichroma::benchutil::bench_main(argc, argv, reproduce);
}
