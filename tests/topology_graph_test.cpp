// Unit tests for graph-level topology: components, paths, links.

#include <gtest/gtest.h>

#include "topology/graph.h"

namespace trichroma {
namespace {

class GraphTest : public ::testing::Test {
 protected:
  VertexPool pool;
  VertexId v(std::int64_t x) { return pool.vertex(kNoColor, x); }
};

TEST_F(GraphTest, ComponentsOfDisconnectedGraph) {
  SimplicialComplex k;
  k.add(Simplex{v(0), v(1)});
  k.add(Simplex{v(2), v(3)});
  k.add(Simplex::single(v(4)));  // isolated vertex
  const auto comps = connected_components(k);
  ASSERT_EQ(comps.size(), 3u);
  EXPECT_EQ(component_count(k), 3u);
  EXPECT_FALSE(is_connected(k));
  EXPECT_TRUE(same_component(k, v(0), v(1)));
  EXPECT_FALSE(same_component(k, v(0), v(2)));
}

TEST_F(GraphTest, ConnectedThroughTriangles) {
  SimplicialComplex k;
  k.add(Simplex{v(0), v(1), v(2)});
  k.add(Simplex{v(2), v(3)});
  EXPECT_TRUE(is_connected(k));
}

TEST_F(GraphTest, PathDistance) {
  SimplicialComplex k;
  for (int i = 0; i < 5; ++i) k.add(Simplex{v(i), v(i + 1)});
  EXPECT_EQ(path_distance(k, v(0), v(5)), 5u);
  EXPECT_EQ(path_distance(k, v(2), v(2)), 0u);
  k.add(Simplex::single(v(9)));
  EXPECT_FALSE(path_distance(k, v(0), v(9)).has_value());
}

TEST_F(GraphTest, LexMinShortestPathPrefersSmallIds) {
  // Two shortest 0 → 3 paths: 0-1-3 and 0-2-3; lexicographically 0-1-3 wins.
  SimplicialComplex k;
  k.add(Simplex{v(0), v(1)});
  k.add(Simplex{v(1), v(3)});
  k.add(Simplex{v(0), v(2)});
  k.add(Simplex{v(2), v(3)});
  const auto path = lex_min_shortest_path(k, v(0), v(3));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<VertexId>{v(0), v(1), v(3)}));
}

TEST_F(GraphTest, LexMinShortestPathIsShortest) {
  // A long detour must not be chosen even if lexicographically tempting.
  SimplicialComplex k;
  k.add(Simplex{v(0), v(1)});
  k.add(Simplex{v(1), v(2)});
  k.add(Simplex{v(2), v(3)});
  k.add(Simplex{v(0), v(5)});
  k.add(Simplex{v(5), v(3)});
  const auto path = lex_min_shortest_path(k, v(0), v(3));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 3u);  // 0-5-3
}

TEST_F(GraphTest, SymmetricPathAgreesFromBothEnds) {
  SimplicialComplex k;
  // A 6-cycle where the two directions see different greedy choices.
  for (int i = 0; i < 6; ++i) k.add(Simplex{v(i), v((i + 1) % 6)});
  k.add(Simplex{v(0), v(3)});  // chord: two distinct shortest 1→4 routes
  const auto p = lex_min_shortest_path_symmetric(k, v(1), v(4));
  const auto q = lex_min_shortest_path_symmetric(k, v(4), v(1));
  ASSERT_TRUE(p.has_value());
  ASSERT_TRUE(q.has_value());
  std::vector<VertexId> q_rev(q->rbegin(), q->rend());
  EXPECT_EQ(*p, q_rev);
  EXPECT_EQ(p->front(), v(1));
  EXPECT_EQ(p->back(), v(4));
}

TEST_F(GraphTest, SymmetricPathOnPathGraph) {
  SimplicialComplex k;
  for (int i = 0; i < 4; ++i) k.add(Simplex{v(i), v(i + 1)});
  const auto p = lex_min_shortest_path_symmetric(k, v(4), v(0));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->front(), v(4));
  EXPECT_EQ(p->back(), v(0));
  EXPECT_EQ(p->size(), 5u);
}

TEST_F(GraphTest, ComponentLabelsNumberComponentsBySmallestVertex) {
  // Facets in any order, with a repeat and a face: labels follow each
  // component's smallest vertex, and a vertex outside the complex reads -1.
  const VertexId a = v(0), b = v(1), c = v(2), d = v(3), e = v(4);
  const std::vector<Simplex> facets{Simplex{b, d}, Simplex::single(c), Simplex{a, e},
                                    Simplex{b, d}, Simplex::single(b), Simplex{a, c}};
  const ComponentLabels labels = component_labels(facets);
  EXPECT_EQ(labels.vertices, (std::vector<VertexId>{a, b, c, d, e}));
  EXPECT_EQ(labels.count, 2u);
  EXPECT_EQ(labels.label, (std::vector<std::uint32_t>{0, 1, 0, 1, 0}));
  EXPECT_EQ(labels.of(d), 1);
  EXPECT_EQ(labels.of(v(9)), -1);
  EXPECT_EQ(connected_components(facets),
            (std::vector<std::vector<VertexId>>{{a, c, e}, {b, d}}));
}

}  // namespace
}  // namespace trichroma
