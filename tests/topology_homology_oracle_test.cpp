// Differential oracle for the sparse GF(p) reducer (BoundarySpan) behind
// betti_numbers, bounds_modulo and bounds_modulo_p. The dense eliminations
// it replaced live on here verbatim, as the oracle: the Gf2Matrix rank
// behind the Betti numbers, Gf2Span behind GF(2) bounding, and the dense
// echelon of bounds_modulo_p. They must agree on Δ′(σ) and on every edge
// image of each catalog T′ and of seeded pinwheel-family draws (2–4 input
// facets): the Betti numbers, and span membership over GF(2) and GF(3) for
// single cycle-basis elements, random integer combinations of them and
// chains that leave the complex, with and without the edge images' cycle
// bases as generators. twisted_hourglass's doubled waist loop pins the one
// case where the two primes disagree.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <random>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/characterization.h"
#include "tasks/canonical.h"
#include "tasks/zoo.h"
#include "topology/graph.h"
#include "topology/homology.h"

namespace trichroma {
namespace {

// ---------------------------------------------------------------------------
// The replaced dense code.
// ---------------------------------------------------------------------------

/// Dense GF(2) matrix with 64-bit packed rows; supports rank computation and
/// membership-in-column-span queries via incremental row reduction.
class Gf2Matrix {
 public:
  Gf2Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), words_((cols + 63) / 64),
        data_(rows * words_, 0) {}

  void set(std::size_t r, std::size_t c) {
    data_[r * words_ + c / 64] |= (std::uint64_t{1} << (c % 64));
  }

  /// Rank via Gaussian elimination (destructive on a copy).
  std::size_t rank() const {
    std::vector<std::vector<std::uint64_t>> rows;
    rows.reserve(rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
      rows.emplace_back(data_.begin() + static_cast<long>(r * words_),
                        data_.begin() + static_cast<long>((r + 1) * words_));
    }
    std::size_t rank = 0;
    for (std::size_t c = 0; c < cols_ && rank < rows.size(); ++c) {
      const std::size_t w = c / 64;
      const std::uint64_t bit = std::uint64_t{1} << (c % 64);
      std::size_t pivot = rank;
      while (pivot < rows.size() && (rows[pivot][w] & bit) == 0) ++pivot;
      if (pivot == rows.size()) continue;
      std::swap(rows[rank], rows[pivot]);
      for (std::size_t r = 0; r < rows.size(); ++r) {
        if (r != rank && (rows[r][w] & bit)) {
          for (std::size_t k = 0; k < words_; ++k) rows[r][k] ^= rows[rank][k];
        }
      }
      ++rank;
    }
    return rank;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::vector<std::uint64_t> row(std::size_t r) const {
    return {data_.begin() + static_cast<long>(r * words_),
            data_.begin() + static_cast<long>((r + 1) * words_)};
  }

 private:
  std::size_t rows_, cols_, words_;
  std::vector<std::uint64_t> data_;
};

/// Row-echelon basis over GF(2); supports adding vectors and testing
/// membership in the span.
class Gf2Span {
 public:
  explicit Gf2Span(std::size_t dim) : words_((dim + 63) / 64) {}

  /// Reduces `v` against the basis; if nonzero remains, adds it and returns
  /// true (dimension grew).
  bool add(std::vector<std::uint64_t> v) {
    reduce(v);
    if (is_zero(v)) return false;
    basis_.push_back(std::move(v));
    normalize_last();
    return true;
  }

  bool contains(std::vector<std::uint64_t> v) const {
    reduce(v);
    return is_zero(v);
  }

 private:
  static bool is_zero(const std::vector<std::uint64_t>& v) {
    for (std::uint64_t w : v)
      if (w != 0) return false;
    return true;
  }

  static int leading_bit(const std::vector<std::uint64_t>& v) {
    for (std::size_t w = 0; w < v.size(); ++w) {
      if (v[w] != 0) {
        return static_cast<int>(w * 64 + static_cast<std::size_t>(__builtin_ctzll(v[w])));
      }
    }
    return -1;
  }

  void reduce(std::vector<std::uint64_t>& v) const {
    for (const auto& b : basis_) {
      const int lb = leading_bit(b);
      if (lb >= 0 && (v[static_cast<std::size_t>(lb) / 64] &
                      (std::uint64_t{1} << (lb % 64)))) {
        for (std::size_t k = 0; k < v.size(); ++k) v[k] ^= b[k];
      }
    }
  }

  void normalize_last() {
    // Keep basis rows mutually reduced for a canonical echelon form.
    auto& last = basis_.back();
    for (std::size_t i = 0; i + 1 < basis_.size(); ++i) {
      const int lb = leading_bit(last);
      if (lb >= 0 && (basis_[i][static_cast<std::size_t>(lb) / 64] &
                      (std::uint64_t{1} << (lb % 64)))) {
        for (std::size_t k = 0; k < last.size(); ++k) basis_[i][k] ^= last[k];
      }
    }
  }

  std::size_t words_;
  std::vector<std::vector<std::uint64_t>> basis_;
};

/// Index mapping for the d-simplices of a complex.
struct SimplexIndex {
  std::vector<Simplex> list;
  std::unordered_map<Simplex, std::size_t, SimplexHash> at;

  explicit SimplexIndex(const SimplicialComplex& k, int d) : list(k.simplices(d)) {
    for (std::size_t i = 0; i < list.size(); ++i) at.emplace(list[i], i);
  }
};

Gf2Matrix boundary_matrix(const SimplexIndex& lower, const SimplexIndex& upper) {
  Gf2Matrix m(lower.list.size(), upper.list.size());
  for (std::size_t c = 0; c < upper.list.size(); ++c) {
    for (const Simplex& face : upper.list[c].boundary_faces()) {
      m.set(lower.at.at(face), c);
    }
  }
  return m;
}

std::vector<std::uint64_t> chain_to_bits(const Chain& c, const SimplexIndex& idx) {
  std::vector<std::uint64_t> bits((idx.list.size() + 63) / 64, 0);
  for (const Simplex& s : c) {
    const std::size_t i = idx.at.at(s);
    bits[i / 64] ^= (std::uint64_t{1} << (i % 64));
  }
  return bits;
}

BettiNumbers dense_betti_numbers(const SimplicialComplex& k) {
  BettiNumbers out;
  if (k.empty()) return out;
  const SimplexIndex v0(k, 0), v1(k, 1), v2(k, 2);
  const std::size_t rank_d1 =
      v1.list.empty() ? 0 : boundary_matrix(v0, v1).rank();
  const std::size_t rank_d2 =
      v2.list.empty() ? 0 : boundary_matrix(v1, v2).rank();
  out.b0 = static_cast<long long>(v0.list.size() - rank_d1);
  out.b1 = static_cast<long long>(v1.list.size() - rank_d1 - rank_d2);
  out.b2 = static_cast<long long>(v2.list.size() - rank_d2);
  return out;
}

bool dense_bounds_modulo(const SimplicialComplex& k, const Chain& cycle,
                         const std::vector<Chain>& generators) {
  assert(is_one_cycle(cycle));
  const SimplexIndex v1(k, 1), v2(k, 2);
  for (const Simplex& e : cycle) {
    if (v1.at.count(e) == 0) return false;  // cycle leaves the complex
  }
  Gf2Span span(v1.list.size());
  // Span of ∂2 columns (the boundary space B1)...
  for (const Simplex& t : v2.list) {
    Chain b;
    for (const Simplex& f : t.boundary_faces()) b.push_back(f);
    span.add(chain_to_bits(b, v1));
  }
  // ... plus the allowed adjustment generators.
  for (const Chain& g : generators) {
    for (const Simplex& e : g) {
      if (v1.at.count(e) == 0) return false;
    }
    span.add(chain_to_bits(g, v1));
  }
  return span.contains(chain_to_bits(cycle, v1));
}

long long mod_p(long long x, long long p) {
  const long long r = x % p;
  return r < 0 ? r + p : r;
}

long long mod_inverse(long long a, long long p) {
  // Fermat: p is prime and a != 0 mod p.
  long long result = 1, base = mod_p(a, p), exp = p - 2;
  while (exp > 0) {
    if (exp & 1) result = (result * base) % p;
    base = (base * base) % p;
    exp >>= 1;
  }
  return result;
}


bool dense_bounds_modulo_p(const SimplicialComplex& k, const OrientedChain& cycle,
                           const std::vector<OrientedChain>& generators,
                           long long p) {
  // Index the edges of k.
  const std::vector<Simplex> edges = k.simplices(1);
  std::unordered_map<Simplex, std::size_t, SimplexHash> edge_index;
  for (std::size_t i = 0; i < edges.size(); ++i) edge_index.emplace(edges[i], i);
  const std::size_t n = edges.size();

  auto to_vector = [&](const OrientedChain& c,
                       std::vector<long long>& out) -> bool {
    out.assign(n, 0);
    for (const auto& [edge, coeff] : c) {
      auto it = edge_index.find(edge);
      if (it == edge_index.end()) return false;  // chain leaves the complex
      out[it->second] = mod_p(coeff, p);
    }
    return true;
  };

  // Span basis (row echelon over GF(p)) of ∂2-columns plus generators.
  std::vector<std::vector<long long>> basis;
  std::vector<std::size_t> pivot_of;  // pivot column per basis row
  auto reduce = [&](std::vector<long long>& v) {
    for (std::size_t r = 0; r < basis.size(); ++r) {
      const std::size_t piv = pivot_of[r];
      if (v[piv] != 0) {
        const long long factor = v[piv];
        for (std::size_t j = 0; j < n; ++j) {
          v[j] = mod_p(v[j] - factor * basis[r][j], p);
        }
      }
    }
  };
  auto add_to_span = [&](std::vector<long long> v) {
    reduce(v);
    for (std::size_t j = 0; j < n; ++j) {
      if (v[j] != 0) {
        const long long inv = mod_inverse(v[j], p);
        for (std::size_t i = 0; i < n; ++i) v[i] = (v[i] * inv) % p;
        basis.push_back(std::move(v));
        pivot_of.push_back(j);
        return;
      }
    }
  };

  for (const Simplex& t : k.simplices(2)) {
    // ∂{a,b,c} = (b,c) - (a,c) + (a,b) with a < b < c.
    OrientedChain b;
    oriented_add_edge(b, t[1], t[2], 1);
    oriented_add_edge(b, t[0], t[2], -1);
    oriented_add_edge(b, t[0], t[1], 1);
    std::vector<long long> v;
    if (!to_vector(b, v)) return false;
    add_to_span(std::move(v));
  }
  for (const OrientedChain& g : generators) {
    std::vector<long long> v;
    if (!to_vector(g, v)) return false;
    add_to_span(std::move(v));
  }

  std::vector<long long> target;
  if (!to_vector(cycle, target)) return false;
  reduce(target);
  for (long long x : target) {
    if (x != 0) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// The sweep.
// ---------------------------------------------------------------------------

constexpr std::array<long long, 2> kPrimes{2, 3};
// The dense oracle rebuilds its echelon form on every query, so each
// complex gets a handful: basis elements spread over the cycle basis, a few
// random combinations of the whole basis, and one chain leaving the complex.
constexpr std::size_t kBasisQueries = 5;
constexpr int kCombinations = 2;

/// The edges with odd coefficient: the GF(2) reduction of an integer cycle.
Chain mod_two(const OrientedChain& c) {
  Chain out;
  for (const auto& [edge, coeff] : c) {
    if (coeff % 2 != 0) out.push_back(edge);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Compares the reducer with the dense oracle on `k`, with and without
/// `generators` (and their GF(2) reductions) as adjustment cycles.
void check_complex(const SimplicialComplex& k,
                   const std::vector<OrientedChain>& generators,
                   std::mt19937_64& rng, const std::string& label) {
  const BettiNumbers sparse = betti_numbers(k), dense = dense_betti_numbers(k);
  EXPECT_EQ(sparse.b0, dense.b0) << label;
  EXPECT_EQ(sparse.b1, dense.b1) << label;
  EXPECT_EQ(sparse.b2, dense.b2) << label;

  const std::vector<OrientedChain> basis = oriented_cycle_basis(k);
  std::vector<OrientedChain> queries;
  const std::size_t stride = basis.size() / kBasisQueries + 1;
  for (std::size_t i = 0; i < basis.size(); i += stride) queries.push_back(basis[i]);
  for (int i = 0; i < kCombinations && !basis.empty(); ++i) {
    OrientedChain sum;
    for (const OrientedChain& b : basis) {
      const long long coeff = static_cast<long long>(rng() % 5) - 2;
      for (const auto& [edge, c] : b) {
        oriented_add_edge(sum, edge[0], edge[1], coeff * c);
      }
    }
    queries.push_back(std::move(sum));
  }
  // A cycle through two vertices no complex here contains.
  const VertexId v = k.vertex_ids().front();
  const OrientedChain leaving =
      oriented_path_chain({v, VertexId{0xfffffff0u}, VertexId{0xfffffff1u}, v});
  queries.push_back(leaving);

  std::vector<Chain> generators2;
  for (const OrientedChain& g : generators) generators2.push_back(mod_two(g));
  for (const long long p : kPrimes) {
    const BoundarySpan plain(k, p);
    BoundarySpan adjusted(k, p);
    for (const OrientedChain& g : generators) adjusted.add(g);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const OrientedChain& c = queries[q];
      const std::string at = label + " p=" + std::to_string(p) + " query " +
                             std::to_string(q);
      EXPECT_EQ(plain.contains(c), dense_bounds_modulo_p(k, c, {}, p)) << at;
      const bool expected = generators.empty()
                                ? plain.contains(c)
                                : dense_bounds_modulo_p(k, c, generators, p);
      EXPECT_EQ(adjusted.contains(c), expected) << at;
      EXPECT_EQ(bounds_modulo_p(k, c, generators, p), expected) << at;
      if (p == 2) {
        const Chain c2 = mod_two(c);
        EXPECT_EQ(bounds_modulo(k, c2, generators2),
                  dense_bounds_modulo(k, c2, generators2)) << at;
        EXPECT_EQ(bounds_in(k, c2), dense_bounds_modulo(k, c2, {})) << at;
      }
    }
    // A generator that leaves the complex refutes every query.
    EXPECT_FALSE(dense_bounds_modulo_p(k, queries.front(), {leaving}, p)) << label;
    EXPECT_FALSE(bounds_modulo_p(k, queries.front(), {leaving}, p)) << label;
  }
}

/// Checks every edge image of T′, and Δ′(σ) of every input facet with the
/// cycle bases of σ's edge images as generators (as the homology engine
/// uses them). Section 4's splitting needs three processes, so a
/// two-process task is checked on T*.
void check_task(const Task& task, std::uint64_t seed) {
  const Task tp =
      task.num_processes == 2 ? canonicalize(task) : characterize(task).link_connected;
  std::mt19937_64 rng(seed);
  for (const Simplex& e : tp.input.simplices(1)) {
    check_complex(tp.delta.image_complex(e), {}, rng,
                  task.name + " edge " + e.to_string(*tp.pool));
  }
  for (const Simplex& sigma : tp.input.simplices(2)) {
    std::vector<OrientedChain> generators;
    for (const Simplex& e : sigma.boundary_faces()) {
      for (OrientedChain& c : oriented_cycle_basis(tp.delta.image_complex(e))) {
        generators.push_back(std::move(c));
      }
    }
    check_complex(tp.delta.image_complex(sigma), generators, rng,
                  task.name + " facet " + sigma.to_string(*tp.pool));
  }
}

class HomologyOracleCatalog : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HomologyOracleCatalog, MatchesDenseElimination) {
  check_task(zoo::catalog()[GetParam()].build(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, HomologyOracleCatalog, ::testing::Range<std::size_t>(0, zoo::catalog().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(zoo::catalog()[info.param].name);
    });

// (input facets, output values per color, draws): 210 pinwheel-family
// draws, plus a few at random_lap's size (3 facets, 3 values), whose facet
// images reach hundreds of edges.
using DrawParams = std::tuple<int, int, int>;
class HomologyOracleRandom : public ::testing::TestWithParam<DrawParams> {};

TEST_P(HomologyOracleRandom, SeededDrawsMatchDenseElimination) {
  const auto [facets, values, draws] = GetParam();
  zoo::RandomTaskParams params;
  params.num_input_facets = facets;
  params.output_values_per_color = values;
  params.restricted_faces = true;
  params.seed = 4242 + static_cast<std::uint64_t>(10 * facets + values);
  zoo::RandomTaskStream stream(params);
  for (int i = 0; i < draws; ++i) check_task(stream.next(), static_cast<std::uint64_t>(i));
}

INSTANTIATE_TEST_SUITE_P(
    Draws, HomologyOracleRandom,
    ::testing::Values(DrawParams{2, 2, 70}, DrawParams{3, 2, 70}, DrawParams{4, 2, 70},
                      DrawParams{3, 3, 10}),
    [](const ::testing::TestParamInfo<DrawParams>& info) {
      return "facets" + std::to_string(std::get<0>(info.param)) + "_values" +
             std::to_string(std::get<1>(info.param));
    });

TEST(HomologyOracle, TwistedHourglassDoubledWaistBoundsOnlyModTwo) {
  // The boundary walk (solo image to solo image along each edge image)
  // crosses the waist twice in the same direction: 2·γ, zero mod 2 only.
  const Task t = zoo::twisted_hourglass();
  const Simplex sigma = t.input.simplices(2).front();
  const SimplicialComplex image = t.delta.image_complex(sigma);
  auto solo = [&](VertexId x) {
    return t.delta.image_complex(Simplex::single(x)).vertex_ids().front();
  };
  OrientedChain loop;
  for (std::size_t i = 0; i < 3; ++i) {
    const VertexId x = sigma[i], xp = sigma[(i + 1) % 3];
    const auto path =
        lex_min_shortest_path(t.delta.image_complex(Simplex{x, xp}), solo(x), solo(xp));
    ASSERT_TRUE(path.has_value());
    for (std::size_t j = 0; j + 1 < path->size(); ++j) {
      oriented_add_edge(loop, (*path)[j], (*path)[j + 1]);
    }
  }
  ASSERT_TRUE(is_oriented_cycle(loop));
  EXPECT_TRUE(dense_bounds_modulo_p(image, loop, {}, 2));
  EXPECT_FALSE(dense_bounds_modulo_p(image, loop, {}, 3));
  EXPECT_TRUE(BoundarySpan(image, 2).contains(loop));
  EXPECT_FALSE(BoundarySpan(image, 3).contains(loop));
  EXPECT_TRUE(bounds_in(image, mod_two(loop)));
}

}  // namespace
}  // namespace trichroma
