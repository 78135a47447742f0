// Unit tests for the standard chromatic subdivision Ch^r.

#include <gtest/gtest.h>

#include "topology/chromatic.h"
#include "topology/graph.h"
#include "topology/subdivision.h"

namespace trichroma {
namespace {

class SubdivisionTest : public ::testing::Test {
 protected:
  VertexPool pool;

  SimplicialComplex triangle() {
    SimplicialComplex k;
    k.add(Simplex{pool.vertex(0, 0), pool.vertex(1, 1), pool.vertex(2, 2)});
    return k;
  }
};

TEST_F(SubdivisionTest, IdentitySubdivisionIsBase) {
  const SimplicialComplex base = triangle();
  const SubdividedComplex sub = identity_subdivision(base);
  EXPECT_TRUE(sub.complex == base);
  for (VertexId v : base.vertex_ids()) {
    EXPECT_EQ(sub.carrier.at(v), Simplex::single(v));
  }
}

TEST_F(SubdivisionTest, OneRoundCountsForTriangle) {
  // Ch(σ) for a 2-simplex: 12 vertices (4 views per process), 13 facets.
  const SubdividedComplex sub = chromatic_subdivision(pool, triangle(), 1);
  EXPECT_EQ(sub.complex.count(0), 12u);
  EXPECT_EQ(sub.complex.count(2), 13u);
  EXPECT_EQ(sub.complex.euler_characteristic(), 1);  // still a disk
  EXPECT_TRUE(sub.complex.is_pure());
  EXPECT_TRUE(is_chromatic_complex(pool, sub.complex));
  EXPECT_TRUE(is_properly_colored(pool, sub.complex, 3));
}

TEST_F(SubdivisionTest, OneRoundCountsForEdge) {
  SimplicialComplex edge;
  edge.add(Simplex{pool.vertex(0, 0), pool.vertex(1, 1)});
  const SubdividedComplex sub = chromatic_subdivision(pool, edge, 1);
  // Ch of an edge: a path of 3 edges, 4 vertices.
  EXPECT_EQ(sub.complex.count(0), 4u);
  EXPECT_EQ(sub.complex.count(1), 3u);
  EXPECT_TRUE(is_connected(sub.complex));
}

TEST_F(SubdivisionTest, TwoRoundsCountsForTriangle) {
  const SubdividedComplex sub = chromatic_subdivision(pool, triangle(), 2);
  EXPECT_EQ(sub.complex.count(2), 169u);  // 13^2
  EXPECT_EQ(sub.complex.euler_characteristic(), 1);
  EXPECT_TRUE(is_chromatic_complex(pool, sub.complex));
}

TEST_F(SubdivisionTest, CarriersAreFacesOfBase) {
  const SimplicialComplex base = triangle();
  const Simplex sigma = base.facets().front();
  const SubdividedComplex sub = chromatic_subdivision(pool, base, 1);
  std::size_t corner = 0, edge_interior = 0, interior = 0;
  for (VertexId v : sub.complex.vertex_ids()) {
    const Simplex& carrier = sub.carrier.at(v);
    EXPECT_TRUE(sigma.contains_all(carrier));
    // Chromatic carrier maps demand the vertex's own color in its carrier.
    bool own_color = false;
    for (VertexId u : carrier) {
      if (pool.color(u) == pool.color(v)) own_color = true;
    }
    EXPECT_TRUE(own_color);
    if (carrier.size() == 1) ++corner;
    if (carrier.size() == 2) ++edge_interior;
    if (carrier.size() == 3) ++interior;
  }
  EXPECT_EQ(corner, 3u);         // solo views
  EXPECT_EQ(edge_interior, 6u);  // two per boundary edge
  EXPECT_EQ(interior, 3u);       // central vertices
}

TEST_F(SubdivisionTest, BoundaryRestrictionIsSubdividedEdge) {
  // The subdivision restricted to vertices carried by an edge of σ is
  // exactly Ch of that edge (the gluing property).
  const SimplicialComplex base = triangle();
  const SubdividedComplex sub = chromatic_subdivision(pool, base, 1);
  const Simplex sigma = base.facets().front();
  const Simplex e{sigma[0], sigma[1]};
  std::size_t count = 0;
  for (VertexId v : sub.complex.vertex_ids()) {
    if (e.contains_all(sub.carrier.at(v))) ++count;
  }
  EXPECT_EQ(count, 4u);  // matches Ch(edge)
}

TEST_F(SubdivisionTest, CarrierOfSimplexIsUnionOfVertexCarriers) {
  const SubdividedComplex sub = chromatic_subdivision(pool, triangle(), 1);
  for (const Simplex& f : sub.complex.simplices(2)) {
    const Simplex carrier = sub.carrier_of(f);
    EXPECT_GE(carrier.size(), 1u);
    EXPECT_LE(carrier.size(), 3u);
  }
}

TEST_F(SubdivisionTest, LadderMatchesColdSubdivisionFacetForFacet) {
  // The incremental ladder must agree with a from-scratch
  // chromatic_subdivision at every radius: same complex (simplex-for-simplex
  // via operator==, hence facet-for-facet) and same carriers.
  const SimplicialComplex base = triangle();
  SubdivisionLadder ladder(pool, base);
  for (int r = 0; r <= 3; ++r) {
    const SubdividedComplex cold = chromatic_subdivision(pool, base, r);
    const SubdividedComplex& inc = ladder.at(r);
    EXPECT_TRUE(inc.complex == cold.complex) << "radius " << r;
    EXPECT_EQ(inc.carrier.size(), cold.carrier.size()) << "radius " << r;
    for (const auto& [v, carrier] : cold.carrier) {
      ASSERT_TRUE(inc.carrier.count(v) > 0) << "radius " << r;
      EXPECT_EQ(inc.carrier.at(v), carrier) << "radius " << r;
    }
  }
  EXPECT_EQ(ladder.max_computed(), 3);
}

TEST_F(SubdivisionTest, LadderLevelsAreStableAcrossGrowth) {
  // References returned by at() must survive deeper levels being computed,
  // and re-asking for a memoized level must not recompute (same address).
  const SimplicialComplex base = triangle();
  SubdivisionLadder ladder(pool, base);
  const SubdividedComplex& level1 = ladder.at(1);
  const std::size_t facets_before = level1.complex.count(2);
  ladder.at(3);
  EXPECT_EQ(level1.complex.count(2), facets_before);
  EXPECT_EQ(&ladder.at(1), &level1);
}

TEST_F(SubdivisionTest, LadderOnMultiFacetBase) {
  SimplicialComplex base;
  const VertexId a = pool.vertex(0, 0), b = pool.vertex(1, 1), c = pool.vertex(2, 2),
                 d = pool.vertex(0, 9);
  base.add(Simplex{a, b, c});
  base.add(Simplex{d, b, c});
  SubdivisionLadder ladder(pool, base);
  for (int r = 0; r <= 2; ++r) {
    EXPECT_TRUE(ladder.at(r).complex ==
                chromatic_subdivision(pool, base, r).complex)
        << "radius " << r;
  }
}

TEST_F(SubdivisionTest, SubdivisionOfTwoFacetComplexGluesOnSharedEdge) {
  SimplicialComplex base;
  const VertexId a = pool.vertex(0, 0), b = pool.vertex(1, 1), c = pool.vertex(2, 2),
                 d = pool.vertex(0, 9);
  base.add(Simplex{a, b, c});
  base.add(Simplex{d, b, c});
  const SubdividedComplex sub = chromatic_subdivision(pool, base, 1);
  // 13 facets per base facet, glued along the shared subdivided edge {b,c}.
  EXPECT_EQ(sub.complex.count(2), 26u);
  // Vertices: 12 + 12 minus the 4 shared on Ch({b,c}).
  EXPECT_EQ(sub.complex.count(0), 20u);
  EXPECT_TRUE(is_connected(sub.complex));
}

}  // namespace
}  // namespace trichroma
