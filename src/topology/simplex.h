#pragma once
// Simplex: an immutable, canonically sorted, non-empty set of vertices.
//
// A simplex of an n-process task has at most n vertices (one per process),
// and the task format caps n at kMaxVertices, as does ch_template. The
// vertices are therefore stored inline, sorted by id, in a fixed array plus
// a count: copying a simplex, hashing it into a set or storing it as a
// carrier-map row touches no heap. Building a simplex of more than
// kMaxVertices distinct vertices throws std::length_error. The empty set is
// representable (Simplex{}) and is used as "no simplex" in a few
// algorithms, but never stored in a complex.

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "topology/vertex.h"

namespace trichroma {

class Simplex {
 public:
  /// Capacity: the task format's process cap.
  static constexpr std::size_t kMaxVertices = 8;

  Simplex() = default;

  /// Builds a simplex from vertices; sorts and deduplicates.
  explicit Simplex(std::span<const VertexId> vertices) {
    for (VertexId v : vertices) insert(v);
  }
  Simplex(std::initializer_list<VertexId> vertices) {
    for (VertexId v : vertices) insert(v);
  }

  static Simplex single(VertexId v) { return Simplex{v}; }

  bool empty() const { return n_ == 0; }
  std::size_t size() const { return n_; }
  /// Dimension = |σ| - 1; the empty simplex reports -1.
  int dim() const { return static_cast<int>(n_) - 1; }

  std::span<const VertexId> vertices() const { return {verts_.data(), n_}; }
  const VertexId* begin() const { return verts_.data(); }
  const VertexId* end() const { return verts_.data() + n_; }
  VertexId operator[](std::size_t i) const {
    assert(i < n_);
    return verts_[i];
  }

  bool contains(VertexId v) const { return std::find(begin(), end(), v) != end(); }

  /// True iff `other` is a (not necessarily proper) face of this simplex.
  bool contains_all(const Simplex& other) const {
    return std::includes(begin(), end(), other.begin(), other.end(), Less{});
  }

  /// This simplex with `v` added (no-op if already present).
  Simplex with(VertexId v) const {
    Simplex out = *this;
    out.insert(v);
    return out;
  }

  /// This simplex with `v` removed (no-op if absent).
  Simplex without(VertexId v) const {
    Simplex out;
    for (VertexId u : *this)
      if (u != v) out.push_back(u);
    return out;
  }

  Simplex unite(const Simplex& other) const {
    Simplex out = *this;
    for (VertexId v : other) out.insert(v);
    return out;
  }

  Simplex intersect(const Simplex& other) const {
    Simplex out;
    const VertexId* last = std::set_intersection(begin(), end(), other.begin(),
                                                 other.end(), out.verts_.data(), Less{});
    out.n_ = static_cast<std::uint8_t>(last - out.verts_.data());
    return out;
  }

  /// All non-empty faces, including the simplex itself.
  std::vector<Simplex> faces() const {
    std::vector<Simplex> out;
    out.reserve((std::size_t{1} << n_) - 1);
    for (unsigned mask = 1; mask < (1u << n_); ++mask) {
      Simplex face;
      for (std::size_t i = 0; i < n_; ++i)
        if (mask & (1u << i)) face.push_back(verts_[i]);
      out.push_back(face);
    }
    return out;
  }

  /// The codimension-1 faces (boundary facets).
  std::vector<Simplex> boundary_faces() const {
    std::vector<Simplex> out;
    if (n_ < 2) return out;
    out.reserve(n_);
    for (VertexId v : *this) out.push_back(without(v));
    return out;
  }

  bool operator==(const Simplex& other) const {
    return n_ == other.n_ && std::equal(begin(), end(), other.begin());
  }

  /// Total order (lexicographic on sorted vertex ids), for deterministic
  /// iteration and for the paper's lexicographically-smallest path rule.
  bool operator<(const Simplex& other) const {
    return std::lexicographical_compare(begin(), end(), other.begin(), other.end(),
                                        Less{});
  }

  std::string to_string(const VertexPool& pool) const {
    std::string out = "[";
    for (std::size_t i = 0; i < n_; ++i) {
      if (i > 0) out += " ";
      out += pool.name(verts_[i]);
    }
    out += "]";
    return out;
  }

 private:
  struct Less {
    bool operator()(VertexId a, VertexId b) const { return raw(a) < raw(b); }
  };

  /// Appends `v`, which must sort after every vertex already held.
  void push_back(VertexId v) {
    assert(n_ < kMaxVertices && (n_ == 0 || Less{}(verts_[n_ - 1], v)));
    verts_[n_++] = v;
  }

  /// Inserts `v` in sorted position (no-op if present).
  void insert(VertexId v) {
    std::size_t i = n_;
    while (i > 0 && Less{}(v, verts_[i - 1])) --i;
    if (i > 0 && verts_[i - 1] == v) return;
    if (n_ == kMaxVertices) {
      throw std::length_error("Simplex: more than 8 vertices");
    }
    std::copy_backward(verts_.begin() + i, verts_.begin() + n_,
                       verts_.begin() + n_ + 1);
    verts_[i] = v;
    ++n_;
  }

  std::array<VertexId, kMaxVertices> verts_{};
  std::uint8_t n_ = 0;
};

struct SimplexHash {
  std::size_t operator()(const Simplex& s) const noexcept {
    std::size_t h = 0x9e3779b97f4a7c15ull;
    for (VertexId v : s) {
      h ^= raw(v) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return h;
  }
};

}  // namespace trichroma
