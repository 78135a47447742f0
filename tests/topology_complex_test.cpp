// Unit tests for Simplex and SimplicialComplex.

#include <gtest/gtest.h>

#include "topology/chromatic.h"
#include "topology/complex.h"
#include "topology/simplex.h"

namespace trichroma {
namespace {

class ComplexTest : public ::testing::Test {
 protected:
  VertexPool pool;
  VertexId v(Color c, std::int64_t x) { return pool.vertex(c, x); }
};

TEST_F(ComplexTest, SimplexNormalizesSortedUnique) {
  const VertexId a = v(0, 0), b = v(1, 0), c = v(2, 0);
  const Simplex s{c, a, b, a};
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.dim(), 2);
  EXPECT_TRUE(s.contains(a));
  EXPECT_EQ(s, (Simplex{a, b, c}));
}

TEST_F(ComplexTest, SimplexFacesEnumeration) {
  const Simplex s{v(0, 0), v(1, 0), v(2, 0)};
  EXPECT_EQ(s.faces().size(), 7u);           // 2^3 - 1
  EXPECT_EQ(s.boundary_faces().size(), 3u);  // codimension-1
  for (const Simplex& f : s.boundary_faces()) EXPECT_EQ(f.dim(), 1);
}

TEST_F(ComplexTest, SimplexSetOperations) {
  const VertexId a = v(0, 0), b = v(1, 0), c = v(2, 0);
  const Simplex ab{a, b};
  EXPECT_EQ(ab.with(c), (Simplex{a, b, c}));
  EXPECT_EQ(ab.without(b), Simplex::single(a));
  EXPECT_EQ((Simplex{a, b}.unite(Simplex{b, c})), (Simplex{a, b, c}));
  EXPECT_EQ((Simplex{a, b}.intersect(Simplex{b, c})), Simplex::single(b));
  EXPECT_TRUE((Simplex{a, b, c}).contains_all(ab));
  EXPECT_FALSE(ab.contains_all(Simplex{a, c}));
}

TEST_F(ComplexTest, AddClosesUnderFaces) {
  SimplicialComplex k;
  k.add(Simplex{v(0, 0), v(1, 0), v(2, 0)});
  EXPECT_EQ(k.count(2), 1u);
  EXPECT_EQ(k.count(1), 3u);
  EXPECT_EQ(k.count(0), 3u);
  EXPECT_EQ(k.total_count(), 7u);
  EXPECT_EQ(k.dimension(), 2);
  EXPECT_TRUE(k.is_pure());
  EXPECT_EQ(k.euler_characteristic(), 1);
}

TEST_F(ComplexTest, FacetsAreMaximalSimplices) {
  SimplicialComplex k;
  const VertexId a = v(0, 0), b = v(1, 0), c = v(2, 0), d = v(0, 1);
  k.add(Simplex{a, b, c});
  k.add(Simplex{b, d});  // pendant edge
  const auto facets = k.facets();
  ASSERT_EQ(facets.size(), 2u);
  EXPECT_FALSE(k.is_pure());
}

TEST_F(ComplexTest, LinkOfInteriorVertex) {
  SimplicialComplex k;
  const VertexId a = v(0, 0), b = v(1, 0), c = v(2, 0), d = v(1, 1);
  k.add(Simplex{a, b, c});
  k.add(Simplex{a, d, c});
  const SimplicialComplex lk = k.link(a);
  EXPECT_TRUE(lk.contains(Simplex{b, c}));
  EXPECT_TRUE(lk.contains(Simplex{d, c}));
  EXPECT_FALSE(lk.contains_vertex(a));
  EXPECT_EQ(lk.count(1), 2u);
}

TEST_F(ComplexTest, StarContainsCofacesAndTheirFaces) {
  SimplicialComplex k;
  const VertexId a = v(0, 0), b = v(1, 0), c = v(2, 0);
  k.add(Simplex{a, b, c});
  const SimplicialComplex st = k.star(a);
  EXPECT_TRUE(st.contains(Simplex{a, b, c}));
  EXPECT_TRUE(st.contains(Simplex{b, c}));  // closure of the triangle
}

TEST_F(ComplexTest, SkeletonTruncatesDimension) {
  SimplicialComplex k;
  k.add(Simplex{v(0, 0), v(1, 0), v(2, 0)});
  const SimplicialComplex sk = k.skeleton(1);
  EXPECT_EQ(sk.dimension(), 1);
  EXPECT_EQ(sk.count(1), 3u);
  EXPECT_EQ(sk.count(2), 0u);
}

TEST_F(ComplexTest, InducedSubcomplex) {
  SimplicialComplex k;
  const VertexId a = v(0, 0), b = v(1, 0), c = v(2, 0);
  k.add(Simplex{a, b, c});
  std::unordered_set<VertexId, VertexIdHash> allowed{a, b};
  const SimplicialComplex sub = k.induced(allowed);
  EXPECT_TRUE(sub.contains(Simplex{a, b}));
  EXPECT_FALSE(sub.contains_vertex(c));
}

TEST_F(ComplexTest, SubcomplexAndEquality) {
  SimplicialComplex k1, k2;
  const VertexId a = v(0, 0), b = v(1, 0), c = v(2, 0);
  k1.add(Simplex{a, b});
  k2.add(Simplex{a, b, c});
  EXPECT_TRUE(k1.subcomplex_of(k2));
  EXPECT_FALSE(k2.subcomplex_of(k1));
  EXPECT_FALSE(k1 == k2);
  SimplicialComplex k3;
  k3.add(Simplex{a, b, c});
  EXPECT_TRUE(k2 == k3);
}

TEST_F(ComplexTest, ChromaticChecks) {
  SimplicialComplex k;
  const VertexId a = v(0, 0), b = v(1, 0), c = v(2, 0);
  k.add(Simplex{a, b, c});
  EXPECT_TRUE(is_chromatic_complex(pool, k));
  EXPECT_TRUE(is_properly_colored(pool, k, 3));
  SimplicialComplex bad;
  bad.add(Simplex{a, v(0, 1)});  // two color-0 vertices in one simplex
  EXPECT_FALSE(is_chromatic_complex(pool, bad));
}

TEST_F(ComplexTest, VertexMapSimplicialAndChromatic) {
  SimplicialComplex dom, cod;
  const VertexId a = v(0, 0), b = v(1, 0);
  const VertexId x = v(0, 9), y = v(1, 9);
  dom.add(Simplex{a, b});
  cod.add(Simplex{x, y});
  VertexMap f;
  f.set(a, x);
  f.set(b, y);
  EXPECT_TRUE(f.is_simplicial(dom, cod));
  EXPECT_TRUE(f.is_color_preserving(pool, dom));
  VertexMap g;
  g.set(a, y);
  g.set(b, x);
  EXPECT_FALSE(g.is_color_preserving(pool, dom));
}

TEST_F(ComplexTest, EulerCharacteristicOfAnnulusIsZero) {
  // A hexagonal annulus band: outer cycle o0..o2, inner cycle i0..i2,
  // alternating triangles.
  SimplicialComplex k;
  const VertexId o0 = v(0, 0), o1 = v(1, 0), o2 = v(2, 0);
  const VertexId i0 = v(0, 1), i1 = v(1, 1), i2 = v(2, 1);
  k.add(Simplex{o0, o1, i2});
  k.add(Simplex{o1, i2, i0});
  k.add(Simplex{o1, o2, i0});
  k.add(Simplex{o2, i0, i1});
  k.add(Simplex{o2, o0, i1});
  k.add(Simplex{o0, i1, i2});
  EXPECT_EQ(k.euler_characteristic(), 0);
}

}  // namespace
}  // namespace trichroma
