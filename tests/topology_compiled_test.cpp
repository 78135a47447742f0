// Unit tests for the compiled (flat CSR) complex.
// The equivalence *property* sweep against the hash-set form across the zoo
// lives in property_test.cpp; this file pins the substrate's own contracts:
// local numbering, lookup tables, incidence rows, link components, the
// closure of a facet list, and the degenerate shapes.

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "topology/compiled.h"
#include "topology/graph.h"
#include "topology/subdivision.h"
#include "topology/vertex.h"

namespace trichroma {
namespace {

class CompiledTest : public ::testing::Test {
 protected:
  VertexPool pool;

  SimplicialComplex triangle() {
    SimplicialComplex k;
    k.add(Simplex{pool.vertex(0, 0), pool.vertex(1, 1), pool.vertex(2, 2)});
    return k;
  }

  static std::shared_ptr<const CompiledComplex> compile_facets(const SimplicialComplex& k) {
    return CompiledComplex::of_facets(k.facets());
  }
};

TEST_F(CompiledTest, LocalsAreSortedByRawIdAndRoundTrip) {
  const SimplicialComplex k = triangle();
  const auto c = compile_facets(k);
  const std::vector<VertexId> ids = k.vertex_ids();  // sorted by raw id
  ASSERT_EQ(c->num_vertices(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto li = static_cast<CompiledComplex::Local>(i);
    EXPECT_EQ(c->vertex(li), ids[i]);
    EXPECT_EQ(c->local(ids[i]), li);
    EXPECT_TRUE(c->contains_vertex(ids[i]));
  }
  // A pool vertex outside the complex resolves to kAbsent.
  const VertexId stranger = pool.vertex(0, 99);
  EXPECT_EQ(c->local(stranger), CompiledComplex::kAbsent);
  EXPECT_FALSE(c->contains_vertex(stranger));
}

TEST_F(CompiledTest, EdgeTableIsSortedWithBinaryLookup) {
  const auto c = compile_facets(triangle());
  ASSERT_EQ(c->num_edges(), 3u);
  for (std::size_t e = 0; e < c->num_edges(); ++e) {
    const auto [u, v] = c->edge(e);
    EXPECT_LT(u, v);
    EXPECT_EQ(c->edge_index(u, v), static_cast<std::ptrdiff_t>(e));
    EXPECT_TRUE(c->contains_edge(u, v));
    if (e > 0) {
      // Packed keys ascend: the table is sorted.
      const auto [pu, pv] = c->edge(e - 1);
      EXPECT_TRUE(pu < u || (pu == u && pv < v));
    }
  }
}

TEST_F(CompiledTest, IncidenceRowsOfASingleTriangle) {
  const auto c = compile_facets(triangle());
  ASSERT_EQ(c->num_triangles(), 1u);
  for (CompiledComplex::Local v = 0; v < 3; ++v) {
    EXPECT_EQ(c->degree(v), 2u);
    EXPECT_EQ(c->triangles_of_count(v), 1u);
    // lk(v) is the opposite edge: non-empty and connected, one component.
    EXPECT_EQ(c->link_component_count(v), 1u);
  }
}

TEST_F(CompiledTest, LinkComponentsMatchHashSetLinkOnBowtie) {
  // Two triangles pinched at a shared vertex w: lk(w) has two components.
  const VertexId w = pool.vertex(0, 0);
  const VertexId a1 = pool.vertex(1, 1), a2 = pool.vertex(2, 2);
  const VertexId b1 = pool.vertex(1, 3), b2 = pool.vertex(2, 4);
  SimplicialComplex k;
  k.add(Simplex{w, a1, a2});
  k.add(Simplex{w, b1, b2});
  const auto c = compile_facets(k);
  const CompiledComplex::Local lw = c->local(w);
  ASSERT_NE(lw, CompiledComplex::kAbsent);
  // Disconnected: two components, as link_labels groups them from the
  // facet list.
  EXPECT_EQ(c->link_component_count(lw), 2u);
  EXPECT_EQ(link_labels(k.facets(), w).groups(), connected_components(k.link(w)));
}

TEST_F(CompiledTest, LinksWiderThanAnyCatalogOrSweepComplex) {
  // The catalog's images reach vertex degree 16 and the property sweep's
  // Ch^0..Ch^2 levels 28. Here w has degree 82, where two 40-triangle fans
  // are pinched at w (lk(w): two 41-vertex paths), and 70, where w is the
  // cone point over a 70-cycle (lk(w): that cycle).
  const VertexId w = pool.vertex(0, 0);
  SimplicialComplex fans, cone;
  for (int base : {1, 101}) {
    for (int i = 0; i < 40; ++i) {
      fans.add(Simplex{w, pool.vertex(1 + i % 2, base + i),
                       pool.vertex(1 + (i + 1) % 2, base + i + 1)});
    }
  }
  for (int i = 0; i < 70; ++i) {
    cone.add(Simplex{w, pool.vertex(1 + i % 2, 1 + i),
                     pool.vertex(1 + (i + 1) % 2, 1 + (i + 1) % 70)});
  }
  struct Case {
    const SimplicialComplex& k;
    std::size_t degree, components;
  };
  for (const Case& t : {Case{fans, 82, 2}, Case{cone, 70, 1}}) {
    const auto c = compile_facets(t.k);
    const CompiledComplex::Local lw = c->local(w);
    ASSERT_EQ(c->degree(lw), t.degree);
    const auto components = connected_components(t.k.link(w));
    ASSERT_EQ(components.size(), t.components);
    EXPECT_EQ(c->link_component_count(lw), t.components);
    EXPECT_EQ(link_labels(t.k.facets(), w).groups(), components);
  }
}

TEST_F(CompiledTest, IsolatedVertexAndDisconnectedPieces) {
  SimplicialComplex k;
  const VertexId lone = pool.vertex(0, 7);
  k.add(Simplex::single(lone));
  k.add(Simplex{pool.vertex(1, 1), pool.vertex(2, 2)});
  const auto c = compile_facets(k);
  EXPECT_EQ(c->num_vertices(), 3u);
  EXPECT_EQ(c->num_edges(), 1u);
  const CompiledComplex::Local ll = c->local(lone);
  // An empty link has no component.
  EXPECT_EQ(c->link_component_count(ll), 0u);
}

TEST_F(CompiledTest, FacetsMatchAcrossMixedDimensions) {
  // A triangle with a dangling edge and a dangling vertex: the closure of
  // facets of three dimensions is exactly the hash-set complex.
  SimplicialComplex k = triangle();
  k.add(Simplex{pool.vertex(0, 0), pool.vertex(1, 5)});
  k.add(Simplex::single(pool.vertex(2, 6)));
  const auto c = compile_facets(k);
  EXPECT_EQ(c->dimension(), k.dimension());
  for (int d = 0; d <= k.dimension(); ++d) EXPECT_EQ(c->count(d), k.count(d));
  k.for_each([&](const Simplex& s) { EXPECT_TRUE(c->contains(s)); });
}

TEST_F(CompiledTest, ContainsAgreesWithSourceOnEveryStoredSimplex) {
  const SubdividedComplex sub = chromatic_subdivision(pool, triangle(), 1);
  const auto c = compile_facets(sub.complex);
  sub.complex.for_each(
      [&](const Simplex& s) { EXPECT_TRUE(c->contains(s)) << s.size(); });
  // Simplices over foreign vertices are rejected, not mis-resolved.
  EXPECT_FALSE(c->contains(Simplex{pool.vertex(0, 0), pool.vertex(1, 1)}));
}

TEST_F(CompiledTest, BuilderAddExpandsClosureLikeComplexAdd) {
  // Streaming facets through Builder::add must store exactly the
  // closure-completed hash-set form.
  const VertexId a = pool.vertex(0, 0), b = pool.vertex(1, 1),
                 c0 = pool.vertex(2, 2), d = pool.vertex(2, 3);
  CompiledComplex::Builder builder;
  builder.add(Simplex{a, b, c0});
  builder.add(Simplex{a, b, d});
  builder.add(Simplex{a, b, c0});  // duplicates are fine
  const auto built = builder.finish();

  SimplicialComplex k;
  k.add(Simplex{a, b, c0});
  k.add(Simplex{a, b, d});
  built->debug_verify_against(k);
  EXPECT_EQ(built->num_vertices(), 4u);
  EXPECT_EQ(built->num_edges(), 5u);
  EXPECT_EQ(built->num_triangles(), 2u);
  k.for_each([&](const Simplex& s) { EXPECT_TRUE(built->contains(s)); });
}

TEST_F(CompiledTest, DimensionThreeCellsAreStoredAndQueryable) {
  // A tetrahedron (4-process shape): dim-3 cells land in the flat tables.
  SimplicialComplex k;
  const Simplex tet{pool.vertex(0, 0), pool.vertex(1, 1), pool.vertex(2, 2),
                    pool.vertex(3, 3)};
  k.add(tet);
  const auto c = compile_facets(k);
  EXPECT_EQ(c->dimension(), 3);
  EXPECT_EQ(c->count(3), 1u);
  EXPECT_TRUE(c->contains(tet));
  const CompiledComplex::Local* flat = c->cells_flat(3);
  ASSERT_NE(flat, nullptr);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(c->vertex(flat[i]), tet[static_cast<std::size_t>(i)]);
}

TEST_F(CompiledTest, EmptyComplexCompiles) {
  const auto c = CompiledComplex::of_facets({});
  EXPECT_EQ(c->num_vertices(), 0u);
  EXPECT_EQ(c->num_edges(), 0u);
  EXPECT_EQ(c->dimension(), -1);
}

TEST_F(CompiledTest, SubdivisionCarriesACompiledSnapshot) {
  // subdivide_once emits into the builder as it streams facets; the cached
  // snapshot must be the exact compiled form of the hash-set complex.
  const SubdividedComplex sub = chromatic_subdivision(pool, triangle(), 2);
  ASSERT_NE(sub.compiled, nullptr);
  sub.compiled->debug_verify_against(sub.complex);
  EXPECT_EQ(sub.compiled->count(2), sub.complex.count(2));
  EXPECT_EQ(sub.compiled->count(2), 169u);  // 13^2 facets of Ch^2(σ²)
}

}  // namespace
}  // namespace trichroma
