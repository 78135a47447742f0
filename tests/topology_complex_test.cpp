// Unit tests for Simplex and SimplicialComplex.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/characterization.h"
#include "tasks/canonical.h"
#include "tasks/zoo.h"
#include "topology/chromatic.h"
#include "topology/complex.h"
#include "topology/simplex.h"
#include "topology/subdivision.h"

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

TEST_F(ComplexTest, SimplexHoldsEightVerticesInline) {
  std::vector<VertexId> ids;
  for (int i = 0; i < 9; ++i) ids.push_back(v(static_cast<Color>(i), 0));
  const std::vector<VertexId> eight(ids.begin(), ids.begin() + 8);
  const Simplex full(eight);
  EXPECT_EQ(full.size(), Simplex::kMaxVertices);
  EXPECT_EQ(full.faces().size(), 255u);
  EXPECT_THROW(Simplex{ids}, std::length_error);
  EXPECT_THROW(full.with(ids[8]), std::length_error);
  EXPECT_EQ(full.with(ids[3]), full);  // already present: no growth
  // Capacity counts distinct vertices: repeats beyond 8 entries are fine.
  std::vector<VertexId> repeated = eight;
  repeated.push_back(ids[0]);
  EXPECT_EQ(Simplex(repeated), full);
  const Simplex low(std::vector<VertexId>(ids.begin(), ids.begin() + 5));
  const Simplex mid(std::vector<VertexId>(ids.begin() + 3, ids.begin() + 8));
  const Simplex high(std::vector<VertexId>(ids.begin() + 4, ids.end()));
  EXPECT_EQ(low.unite(mid), full);  // overlapping union of 8
  EXPECT_THROW(low.unite(high), std::length_error);
  for (const Simplex& s : {Simplex{}, Simplex{ids[2], ids[0]}, low, full}) {
    const auto span = s.vertices();
    EXPECT_EQ(span.size(), s.size());
    EXPECT_EQ(span.data(), s.begin());
    EXPECT_TRUE(std::is_sorted(span.begin(), span.end(),
                               [](VertexId a, VertexId b) { return raw(a) < raw(b); }));
  }
}

TEST(SimplexHash, ValuesArePinned) {
  // Hash-set iteration order, and with it every report byte, depends on
  // these values.
  const SimplexHash h;
  EXPECT_EQ(h(Simplex::single(VertexId{0})), 14813675350809533519ull);
  EXPECT_EQ(h(Simplex{VertexId{1}, VertexId{2}}), 18111443614409784036ull);
  EXPECT_EQ(h(Simplex{VertexId{7}, VertexId{3}, VertexId{5}}), 5217400152002284049ull);
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

// Reference for SimplicialComplex::facets(): the quadratic pairwise scan,
// each d-simplex against every (d+1)-simplex.
std::vector<Simplex> facets_by_pairwise_scan(const SimplicialComplex& k) {
  std::vector<Simplex> out;
  for (int d = 0; d <= k.dimension(); ++d) {
    const std::vector<Simplex> up = k.simplices(d + 1);
    for (const Simplex& s : k.simplices(d)) {
      // s is maximal iff no simplex one dimension up contains it.
      bool maximal = true;
      for (const Simplex& t : up) {
        if (t.contains_all(s)) {
          maximal = false;
          break;
        }
      }
      if (maximal) out.push_back(s);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST_F(ComplexTest, FacetsAreMaximalSimplices) {
  SimplicialComplex k;
  const VertexId a = v(0, 0), b = v(1, 0), c = v(2, 0), d = v(0, 1), e = v(1, 1);
  k.add(Simplex{a, b, c});
  k.add(Simplex{b, d});       // pendant edge
  k.add(Simplex::single(e));  // isolated vertex
  const auto facets = k.facets();
  EXPECT_EQ(facets, (std::vector<Simplex>{Simplex{a, b, c}, Simplex{b, d},
                                          Simplex::single(e)}));
  EXPECT_EQ(facets, facets_by_pairwise_scan(k));
  EXPECT_FALSE(k.is_pure());
  EXPECT_TRUE(SimplicialComplex{}.facets().empty());
}

TEST(ComplexFacets, MatchPairwiseScanOnCatalogAndCh2) {
  for (const zoo::CatalogEntry& entry : zoo::catalog()) {
    Task t = entry.build();
    EXPECT_EQ(t.input.facets(), facets_by_pairwise_scan(t.input)) << entry.name;
    EXPECT_EQ(t.output.facets(), facets_by_pairwise_scan(t.output)) << entry.name;
    for (int r = 1; r <= 2; ++r) {
      const SubdividedComplex level = chromatic_subdivision(*t.pool, t.input, r);
      EXPECT_EQ(level.complex.facets(), facets_by_pairwise_scan(level.complex))
          << entry.name << " Ch^" << r;
    }
  }
}

// SimplicialComplex::add as it inserts every face: each face of a new
// simplex goes into its level, in faces() order. It is the oracle for the
// per-level iteration order of add, which skips faces a complex already
// holds; hash-set iteration order reaches every report byte.
struct AllFacesLevels {
  std::vector<std::unordered_set<Simplex, SimplexHash>> by_dim;

  void add(const Simplex& s) {
    const auto d = static_cast<std::size_t>(s.dim());
    if (d < by_dim.size() && by_dim[d].count(s) > 0) return;
    if (by_dim.size() <= d) by_dim.resize(d + 1);
    for (const Simplex& face : s.faces()) {
      by_dim[static_cast<std::size_t>(face.dim())].insert(face);
    }
  }
};

using Levels = std::vector<std::vector<Simplex>>;

Levels levels_of(const SimplicialComplex& k) {
  Levels out;
  k.for_each([&](const Simplex& s) {
    const auto d = static_cast<std::size_t>(s.dim());
    if (out.size() <= d) out.resize(d + 1);
    out[d].push_back(s);
  });
  return out;
}

Levels levels_of(const AllFacesLevels& k) {
  Levels out;
  for (const auto& level : k.by_dim) out.emplace_back(level.begin(), level.end());
  return out;
}

// Adds `sequence` to a complex and to the oracle; every level must hold the
// same simplices in the same iteration order.
void expect_same_levels(const std::vector<Simplex>& sequence, const std::string& label) {
  SimplicialComplex k;
  AllFacesLevels oracle;
  for (const Simplex& s : sequence) {
    k.add(s);
    oracle.add(s);
  }
  EXPECT_EQ(levels_of(k), levels_of(oracle)) << label;
}

// Two add sequences over the simplices of `k`: its facets in sorted order,
// and every simplex top level first, each level in iteration order.
void expect_same_levels_over(const SimplicialComplex& k, const std::string& label) {
  expect_same_levels(k.facets(), label + " facets");
  std::vector<Simplex> top_down;
  const Levels levels = levels_of(k);
  for (auto level = levels.rbegin(); level != levels.rend(); ++level) {
    top_down.insert(top_down.end(), level->begin(), level->end());
  }
  expect_same_levels(top_down, label + " top down");
}

// reachable_output's own add sequence, replayed into the oracle: the
// library's ∪ Δ(τ) must iterate exactly as the oracle's.
void expect_reachable_output_matches(const Task& t, const std::string& label) {
  AllFacesLevels oracle;
  t.input.for_each([&](const Simplex& tau) {
    for (const Simplex& f : t.delta.facet_images(tau)) oracle.add(f);
  });
  EXPECT_EQ(levels_of(t.delta.reachable_output(t.input)), levels_of(oracle)) << label;
}

TEST(ComplexAdd, MatchesAllFacesLoopOnCatalogAndCh2) {
  for (const zoo::CatalogEntry& entry : zoo::catalog()) {
    const Task t = entry.build();
    const std::string name = entry.name;
    expect_same_levels_over(t.output, name + " O");
    expect_reachable_output_matches(t, name + " O");
    if (t.num_processes == 2) {
      // Section 4's splitting needs three processes: T* and no T′.
      expect_reachable_output_matches(canonicalize(t), name + " T*");
    } else {
      const CharacterizationResult c = characterize(t);
      expect_same_levels_over(c.link_connected.output, name + " O'");
      expect_reachable_output_matches(c.canonical, name + " T*");
      expect_reachable_output_matches(c.link_connected, name + " O'");
    }
    for (int r = 1; r <= 2; ++r) {
      const SubdividedComplex level = chromatic_subdivision(*t.pool, t.input, r);
      expect_same_levels_over(level.complex, name + " Ch^" + std::to_string(r));
    }
  }
}

TEST(ComplexAdd, ReachableOutputMatchesAllFacesLoopOnSeededDraws) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    zoo::RandomTaskParams params;
    params.num_input_facets = 1 + static_cast<int>(seed % 4);
    params.output_values_per_color = 2 + static_cast<int>(seed % 3);
    params.restricted_faces = seed % 2 == 0;
    params.seed = seed;
    const Task t = zoo::random_task(params);
    const std::string label = t.name + " seed " + std::to_string(seed);
    expect_reachable_output_matches(t, label);
    expect_reachable_output_matches(characterize(t).link_connected, label + " T'");
  }
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
