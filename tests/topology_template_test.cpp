// Differential tests for the template-stamped standard chromatic
// subdivision: subdivide_once (stamped from precompiled per-dimension
// ChTemplates) must reproduce subdivide_once_reference (per-simplex
// ordered-partition enumeration, kept here as the oracle) exactly — same
// facets, same carriers, same colors, same compiled CSR, and the same
// interning order, so raw vertex ids agree across two independently grown
// pools.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "tasks/zoo.h"
#include "topology/subdivision.h"

namespace trichroma {
namespace {

void ordered_partitions_rec(const std::vector<VertexId>& items,
                            std::vector<std::vector<VertexId>>& prefix,
                            std::vector<std::vector<std::vector<VertexId>>>& out) {
  if (items.empty()) {
    out.push_back(prefix);
    return;
  }
  const std::size_t n = items.size();
  // Enumerate non-empty first blocks as bitmasks, in increasing mask order
  // for determinism.
  for (std::size_t mask = 1; mask < (std::size_t{1} << n); ++mask) {
    std::vector<VertexId> block, rest;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) {
        block.push_back(items[i]);
      } else {
        rest.push_back(items[i]);
      }
    }
    prefix.push_back(std::move(block));
    ordered_partitions_rec(rest, prefix, out);
    prefix.pop_back();
  }
}

/// All ordered set partitions of `items` (each block non-empty, blocks
/// ordered). For |items| = 3 there are 13. Deterministic order.
std::vector<std::vector<std::vector<VertexId>>> ordered_partitions(
    const std::vector<VertexId>& items) {
  std::vector<std::vector<std::vector<VertexId>>> out;
  std::vector<std::vector<VertexId>> prefix;
  if (items.size() > 8) {
    throw std::length_error("ordered_partitions: more than 8 items");
  }
  ordered_partitions_rec(items, prefix, out);
  return out;
}

/// The pre-template subdivide_once: enumerates the ordered partitions of
/// every simplex of `prev` and interns each subdivision vertex by (color,
/// view). Produces the complexes, carriers and pool state the stamped path
/// must reproduce.
SubdividedComplex subdivide_once_reference(VertexPool& pool,
                                           const SubdividedComplex& prev) {
  SubdividedComplex out;
  ValuePool& values = pool.values();
  const ValueId view_tag = values.of_string("view");

  // Interns the subdivision vertex for (process-vertex u, view V).
  auto subdivision_vertex = [&](VertexId u, const Simplex& view) {
    std::vector<ValueId> members;
    members.reserve(view.size());
    for (VertexId w : view) {
      members.push_back(values.of_int(static_cast<std::int64_t>(raw(w))));
    }
    const ValueId view_value =
        values.of_tuple({view_tag, values.of_set(std::move(members))});
    const VertexId nv = pool.vertex(pool.color(u), view_value);
    if (out.carrier.count(nv) == 0) {
      out.carrier.emplace(nv, prev.carrier_of(view));
    }
    return nv;
  };

  // Subdivide every simplex in canonical (sorted) order; the union glues
  // correctly along shared faces because subdivision vertices are interned
  // by (color, view).
  CompiledComplex::Builder builder;
  for (const Simplex& sigma : prev.complex.all_simplices()) {
    for (const auto& partition : ordered_partitions({sigma.begin(), sigma.end()})) {
      Simplex view;  // running union B1 ∪ ... ∪ Bj
      std::vector<VertexId> facet_vertices;
      facet_vertices.reserve(sigma.size());
      for (const auto& block : partition) {
        for (VertexId u : block) view = view.with(u);
        for (VertexId u : block) {
          facet_vertices.push_back(subdivision_vertex(u, view));
        }
      }
      Simplex facet(std::move(facet_vertices));
      builder.add(facet);
      out.complex.add(facet);
    }
  }
  out.compiled = builder.finish();
  return out;
}

std::vector<std::vector<std::uint32_t>> facet_table(const SimplicialComplex& c) {
  std::vector<std::vector<std::uint32_t>> out;
  c.for_each([&](const Simplex& s) {
    std::vector<std::uint32_t> f;
    f.reserve(s.size());
    for (VertexId v : s) f.push_back(raw(v));
    out.push_back(std::move(f));
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::map<std::uint32_t, std::vector<std::uint32_t>> carrier_table(
    const SubdividedComplex& s) {
  std::map<std::uint32_t, std::vector<std::uint32_t>> out;
  for (const auto& [v, carrier] : s.carrier) {
    std::vector<std::uint32_t> c;
    c.reserve(carrier.size());
    for (VertexId w : carrier) c.push_back(raw(w));
    out.emplace(raw(v), std::move(c));
  }
  return out;
}

/// Full structural equality of the stamped and reference outputs, including
/// pool-state equality (identical raw ids and colors across the two pools).
void expect_equivalent(const VertexPool& pa, const SubdividedComplex& a,
                       const VertexPool& pb, const SubdividedComplex& b) {
  EXPECT_EQ(facet_table(a.complex), facet_table(b.complex));
  EXPECT_EQ(carrier_table(a), carrier_table(b));

  ASSERT_NE(a.compiled, nullptr);
  ASSERT_NE(b.compiled, nullptr);
  const CompiledComplex& ca = *a.compiled;
  const CompiledComplex& cb = *b.compiled;
  ASSERT_EQ(ca.num_vertices(), cb.num_vertices());
  for (std::size_t i = 0; i < ca.num_vertices(); ++i) {
    const auto l = static_cast<CompiledComplex::Local>(i);
    EXPECT_EQ(ca.vertex(l), cb.vertex(l));
    EXPECT_EQ(pa.color(ca.vertex(l)), pb.color(cb.vertex(l)));
  }
  ASSERT_EQ(ca.num_edges(), cb.num_edges());
  for (std::size_t e = 0; e < ca.num_edges(); ++e) {
    EXPECT_EQ(ca.edge(e), cb.edge(e));
  }
  ASSERT_EQ(ca.num_triangles(), cb.num_triangles());
  for (std::size_t t = 0; t < ca.num_triangles(); ++t) {
    EXPECT_EQ(ca.triangle(t), cb.triangle(t));
  }
  ASSERT_EQ(ca.dimension(), cb.dimension());
  for (int d = 0; d <= ca.dimension(); ++d) {
    EXPECT_EQ(ca.count(d), cb.count(d));
  }
  // Cross-check each snapshot against the OTHER build's hash-set complex:
  // catches any divergence the tables above might normalize away.
  ca.debug_verify_against(b.complex);
  cb.debug_verify_against(a.complex);
}

/// Grows Ch^0..Ch^max_r twice — stamped vs reference — on two private
/// pools, comparing every level.
void sweep_task(Task (*build)(), int max_r) {
  const Task ta = build();
  const Task tb = build();
  SubdividedComplex a = identity_subdivision(ta.input);
  SubdividedComplex b = identity_subdivision(tb.input);
  expect_equivalent(*ta.pool, a, *tb.pool, b);
  for (int r = 1; r <= max_r; ++r) {
    a = subdivide_once(*ta.pool, a);
    b = subdivide_once_reference(*tb.pool, b);
    SCOPED_TRACE("radius " + std::to_string(r));
    expect_equivalent(*ta.pool, a, *tb.pool, b);
  }
}

TEST(SubdivisionTest, OrderedPartitionsCount) {
  // Fubini numbers: 1, 3, 13 for 1, 2, 3 elements.
  VertexPool pool;
  const VertexId a = pool.vertex(0, 0), b = pool.vertex(1, 1), c = pool.vertex(2, 2);
  EXPECT_EQ(ordered_partitions({a}).size(), 1u);
  EXPECT_EQ(ordered_partitions({a, b}).size(), 3u);
  EXPECT_EQ(ordered_partitions({a, b, c}).size(), 13u);
}

TEST(ChTemplate, KnownCombinatoricsPerDimension) {
  // |Ch(σ^d)| facets = ordered Bell numbers; vertices = m * 2^(m-1)
  // (a (position, view) pair for every view containing the position).
  const ChTemplate& t1 = ch_template(1);
  EXPECT_EQ(t1.num_facets, 1u);
  EXPECT_EQ(t1.uniq.size(), 1u);
  const ChTemplate& t2 = ch_template(2);
  EXPECT_EQ(t2.num_facets, 3u);
  EXPECT_EQ(t2.uniq.size(), 4u);
  const ChTemplate& t3 = ch_template(3);
  EXPECT_EQ(t3.num_facets, 13u);
  EXPECT_EQ(t3.uniq.size(), 12u);
  EXPECT_EQ(t3.slots.size(), 13u * 3u);
  const ChTemplate& t4 = ch_template(4);
  EXPECT_EQ(t4.num_facets, 75u);
  EXPECT_EQ(t4.uniq.size(), 32u);
}

TEST(ChTemplate, ThrowsBeyondEightVertices) {
  EXPECT_THROW(ch_template(9), std::length_error);
}

TEST(TemplateStamping, MatchesReferenceOnWholeCatalogToRadiusTwo) {
  for (const zoo::CatalogEntry& entry : zoo::catalog()) {
    SCOPED_TRACE(entry.name);
    // Radius 2 doubles as the golden pipeline table's max probe depth.
    sweep_task(entry.build, 2);
  }
}

TEST(TemplateStamping, MatchesReferenceOnSeededRandomTasks) {
  for (std::uint64_t seed : {1u, 7u, 23u, 42u, 99u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    zoo::RandomTaskParams params;
    params.seed = seed;
    const Task ta = zoo::random_task(params);
    const Task tb = [&] {
      zoo::RandomTaskParams p2;
      p2.seed = seed;
      return zoo::random_task(p2);
    }();
    SubdividedComplex a = identity_subdivision(ta.input);
    SubdividedComplex b = identity_subdivision(tb.input);
    for (int r = 1; r <= 2; ++r) {
      a = subdivide_once(*ta.pool, a);
      b = subdivide_once_reference(*tb.pool, b);
      SCOPED_TRACE("radius " + std::to_string(r));
      expect_equivalent(*ta.pool, a, *tb.pool, b);
    }
  }
}

TEST(TemplateStamping, MatchesReferenceOnATetrahedron) {
  // Dimension 3 exercises the n = 4 template (75 facets per tetrahedron)
  // and the generic d >= 3 cell path of the compiled builder.
  auto build = [](VertexPool& pool) {
    std::vector<VertexId> corners;
    for (Color c = 0; c < 4; ++c) {
      corners.push_back(pool.vertex(c, static_cast<std::int64_t>(c)));
    }
    SimplicialComplex base;
    base.add(Simplex(std::move(corners)));
    return identity_subdivision(base);
  };
  VertexPool pa, pb;
  SubdividedComplex a = build(pa);
  SubdividedComplex b = build(pb);
  for (int r = 1; r <= 2; ++r) {
    a = subdivide_once(pa, a);
    b = subdivide_once_reference(pb, b);
    SCOPED_TRACE("radius " + std::to_string(r));
    expect_equivalent(pa, a, pb, b);
  }
}

}  // namespace
}  // namespace trichroma
