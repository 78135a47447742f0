// Tests for the splitting deformation (Section 4): Lemma 4.1 (LAP count
// strictly decreases, no new LAPs on clean facets), Claim 1 (canonicity
// preserved), Theorem 4.3 (termination in a link-connected task), and the
// carrier-map validity of every intermediate task.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/characterization.h"
#include "core/link_connected.h"
#include "core/splitting.h"
#include "io/task_format.h"
#include "tasks/canonical.h"
#include "tasks/zoo.h"
#include "topology/graph.h"

namespace trichroma {
namespace {

std::string read_golden(const std::string& name) {
  const std::string path = std::string(TRICHROMA_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(Splitting, SplitCopyRoundTrip) {
  VertexPool pool;
  const VertexId y = pool.vertex(0, 7);
  const VertexId y1 = split_copy(pool, y, 1);
  const VertexId y2 = split_copy(pool, y, 2);
  EXPECT_NE(y1, y2);
  EXPECT_EQ(pool.color(y1), pool.color(y));
  EXPECT_TRUE(is_split_vertex(pool, y1));
  EXPECT_FALSE(is_split_vertex(pool, y));
  EXPECT_EQ(split_parent(pool, y1), y);
  // Nested splits unwrap fully.
  const VertexId y11 = split_copy(pool, y1, 1);
  EXPECT_EQ(split_parent(pool, y11), y1);
  EXPECT_EQ(split_root(pool, y11), y);
  EXPECT_EQ(split_root(pool, y), y);
}

TEST(Splitting, HourglassSplitMatchesFig2) {
  const Task t = zoo::hourglass();  // already canonical
  const auto laps = find_all_laps(t);
  ASSERT_EQ(laps.size(), 1u);
  const SplitResult split = split_lap(t, laps[0]);
  const Task& ty = split.task;

  EXPECT_TRUE(ty.validate().empty()) << ty.validate().front();
  EXPECT_TRUE(ty.is_canonical());
  EXPECT_TRUE(find_all_laps(ty).empty());  // the only LAP is gone
  EXPECT_EQ(split.copies.size(), 2u);

  // Same triangle count, one extra vertex (y replaced by two copies).
  EXPECT_EQ(ty.output.count(2), t.output.count(2));
  EXPECT_EQ(ty.output.count(0), t.output.count(0) + 1);
  EXPECT_FALSE(ty.output.contains_vertex(split.original));
  for (VertexId copy : split.copies) {
    EXPECT_TRUE(ty.output.contains_vertex(copy));
  }
  // The split task's two-process path for {x0, x1} is now disconnected
  // between the solo vertices (the Corollary 5.5 obstruction).
  const auto edges = ty.input.simplices(1);
  bool found_disconnected = false;
  for (const Simplex& e : edges) {
    const SimplicialComplex image = ty.delta.image_complex(e);
    if (component_count(image) > 1) found_disconnected = true;
  }
  EXPECT_TRUE(found_disconnected);
}

TEST(Splitting, Lemma41NoNewLapsOnCleanFacetsAndStrictDecrease) {
  // Pinwheel: six LAPs w.r.t. the unique facet; each split strictly
  // decreases the count and never resurrects one.
  Task t = zoo::pinwheel();
  std::size_t previous = find_all_laps(t).size();
  ASSERT_EQ(previous, 6u);
  while (previous > 0) {
    const Simplex sigma = t.input.facets().front();
    const auto lap = first_lap(t, sigma);
    ASSERT_TRUE(lap.has_value());
    const SplitResult split = split_lap(t, *lap);
    t = split.task;
    ASSERT_TRUE(t.validate(/*relax_vertex_monotonicity=*/true).empty())
        << t.validate(true).front();
    const std::size_t now = find_all_laps(t).size();
    EXPECT_LT(now, previous);
    previous = now;
  }
  EXPECT_TRUE(t.is_link_connected());
}

TEST(Splitting, PinwheelSplitsIntoThreeBlades) {
  // Figure 8: after eliminating all LAPs the output complex falls apart
  // into three components (the blades), pre-split it is connected.
  const Task t = zoo::pinwheel();
  EXPECT_TRUE(is_connected(t.output));
  const LinkConnectedResult lc = make_link_connected(t);
  EXPECT_EQ(lc.history.size(), 6u);
  EXPECT_EQ(component_count(lc.task.output), 3u);
  // Each blade: 3 triangles on 5 vertices (split copies replace the four
  // LAP vertices the blade touches; one interior vertex is unsplit).
  for (const auto& comp : connected_components(lc.task.output)) {
    EXPECT_EQ(comp.size(), 5u);
  }
}

TEST(Splitting, MakeLinkConnectedOnAllZooTasks) {
  const std::vector<Task> tasks = {
      canonicalize(zoo::consensus(3)),
      canonicalize(zoo::majority_consensus()),
      canonicalize(zoo::set_agreement_32()),
      zoo::hourglass(),
      canonicalize(zoo::pinwheel()),
      canonicalize(zoo::fig3_running_example()),
      canonicalize(zoo::subdivision_task(1)),
      canonicalize(zoo::approximate_agreement(2)),
  };
  for (const Task& t : tasks) {
    const LinkConnectedResult lc = make_link_connected(t);
    EXPECT_TRUE(lc.task.is_link_connected()) << t.name;
    EXPECT_TRUE(lc.task.is_canonical()) << t.name;  // Claim 1, iterated
    const auto errors = lc.task.validate(/*relax_vertex_monotonicity=*/true);
    EXPECT_TRUE(errors.empty()) << t.name << ": " << errors.front();
  }
}

TEST(Splitting, SplitRewiringRespectsComponents) {
  // For τ ⊆ σ, a rewired facet must use the copy of the component that
  // contains the rest of the facet.
  const Task t = zoo::hourglass();
  const auto laps = find_all_laps(t);
  const SplitResult split = split_lap(t, laps[0]);
  VertexPool& pool = *t.pool;

  const ComponentLabels& link = laps[0].link;
  split.task.input.for_each([&](const Simplex& tau) {
    for (const Simplex& rho : split.task.delta.facet_images(tau)) {
      for (VertexId v : rho) {
        if (!is_split_vertex(pool, v)) continue;
        // The copy index is the 1-based component id.
        const auto idx = static_cast<std::size_t>(
            pool.values().as_int(pool.values().elements(pool.value(v))[2]));
        for (VertexId other : rho) {
          if (other == v) continue;
          const std::int32_t component = link.of(other);
          if (component >= 0) {
            EXPECT_EQ(static_cast<std::size_t>(component) + 1, idx)
                << "facet " << rho.to_string(pool) << " straddles components";
          }
        }
      }
    }
  });
}

TEST(Splitting, SplitTasksMatchGoldenFiles) {
  // characterize's report followed by T′ in the task format, as `trichroma
  // split` prints them: the files pin the split history, copy numbering,
  // vertex names and every Δ′ row of the catalog's pinwheel (6 splits) and
  // its split-heaviest task (42 splits).
  struct Case {
    Task (*build)();
    const char* golden;
    std::size_t splits;
  };
  for (const Case& c : {Case{zoo::pinwheel, "pinwheel_split.txt", 6},
                        Case{zoo::majority_consensus, "majority_consensus_split.txt", 42}}) {
    const Task task = c.build();
    const CharacterizationResult result = characterize(task);
    EXPECT_EQ(result.splits.size(), c.splits) << c.golden;
    EXPECT_EQ(result.report(*task.pool) + "\n" + io::serialize_task(result.link_connected),
              read_golden(c.golden));
  }
}

TEST(Splitting, RequiresCanonicalTask) {
  const Task t = zoo::majority_consensus();  // not canonical
  EXPECT_THROW(make_link_connected(t), std::logic_error);
}

TEST(Splitting, RefusesTwoProcessTasks) {
  // Section 4 is stated for three processes. On a one-dimensional Δ(σ)
  // every vertex of degree two or more is a "LAP", and splitting it w.r.t.
  // one input edge gives the other edges' rows one facet per copy: the
  // split T′ of two-process approximate agreement was left with LAPs and
  // decided UNSOLVABLE, although the task is solvable (Proposition 5.4).
  const Task t = canonicalize(zoo::approximate_agreement_2(2));
  EXPECT_THROW(make_link_connected(t), std::logic_error);
  const auto laps = find_all_laps(t);
  ASSERT_FALSE(laps.empty());
  EXPECT_THROW(split_lap(t, laps.front()), std::logic_error);
  // A two-process task without LAPs is refused too.
  EXPECT_THROW(make_link_connected(canonicalize(zoo::consensus_2())), std::logic_error);
}

TEST(Splitting, UnsplitVertexTranslatesBack) {
  const Task t = zoo::pinwheel();
  const LinkConnectedResult lc = make_link_connected(t);
  VertexPool& pool = *t.pool;
  for (VertexId v : lc.task.output.vertex_ids()) {
    const VertexId root = unsplit_vertex(pool, v);
    EXPECT_TRUE(t.output.contains_vertex(root)) << pool.name(v);
  }
}

}  // namespace
}  // namespace trichroma
