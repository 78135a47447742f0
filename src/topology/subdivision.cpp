#include "topology/subdivision.h"

#include <array>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace trichroma {

Simplex SubdividedComplex::carrier_of(const Simplex& s) const {
  Simplex out;
  for (VertexId v : s) out = out.unite(carrier.at(v));
  return out;
}

std::vector<VertexId> view_of(const VertexPool& pool, VertexId v) {
  const ValuePool& values = pool.values();
  const ValueId view = values.elements(pool.value(v))[1];  // ("view", {...})
  std::vector<VertexId> seen;
  for (const ValueId member : values.elements(view)) {
    seen.push_back(VertexId{static_cast<std::uint32_t>(values.as_int(member))});
  }
  return seen;
}

SubdividedComplex identity_subdivision(const SimplicialComplex& base) {
  SubdividedComplex out;
  out.complex = base;
  for (VertexId v : base.vertex_ids()) {
    out.carrier.emplace(v, Simplex::single(v));
  }
  out.compiled = CompiledComplex::of_facets(base.facets());
  return out;
}

ChTemplate build_ch_template(std::size_t n) {
  ChTemplate tpl;
  tpl.n = n;
  // (position, view-mask) → uniq index; views fit 8 bits for n <= 8.
  std::vector<std::int16_t> seen(n << 8, -1);
  std::vector<std::uint16_t> facet;
  // Enumerates the ordered set partitions of the positions: first blocks as
  // ascending bitmasks over the remaining items, block members in item
  // order. That traversal fixes the vertex first-occurrence order and the
  // facet order.
  auto rec = [&](auto&& self, const std::vector<std::uint8_t>& rem,
                 std::uint8_t view) -> void {
    if (rem.empty()) {
      tpl.slots.insert(tpl.slots.end(), facet.begin(), facet.end());
      ++tpl.num_facets;
      return;
    }
    const std::size_t m = rem.size();
    for (std::size_t mask = 1; mask < (std::size_t{1} << m); ++mask) {
      std::vector<std::uint8_t> rest;
      std::uint8_t next_view = view;
      for (std::size_t i = 0; i < m; ++i) {
        if (mask & (std::size_t{1} << i)) {
          next_view = static_cast<std::uint8_t>(next_view | (1u << rem[i]));
        }
      }
      const std::size_t base = facet.size();
      for (std::size_t i = 0; i < m; ++i) {
        const std::uint8_t pos = rem[i];
        if (mask & (std::size_t{1} << i)) {
          const std::size_t key = (std::size_t{pos} << 8) | next_view;
          if (seen[key] < 0) {
            seen[key] = static_cast<std::int16_t>(tpl.uniq.size());
            tpl.uniq.push_back({pos, next_view});
          }
          facet.push_back(static_cast<std::uint16_t>(seen[key]));
        } else {
          rest.push_back(pos);
        }
      }
      self(self, rest, next_view);
      facet.resize(base);
    }
  };
  std::vector<std::uint8_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = static_cast<std::uint8_t>(i);
  rec(rec, all, 0);
  return tpl;
}

const ChTemplate& ch_template(std::size_t n) {
  switch (n) {
    case 0: {
      static const ChTemplate t = build_ch_template(0);
      return t;
    }
    case 1: {
      static const ChTemplate t = build_ch_template(1);
      return t;
    }
    case 2: {
      static const ChTemplate t = build_ch_template(2);
      return t;
    }
    case 3: {
      static const ChTemplate t = build_ch_template(3);
      return t;
    }
    case 4: {
      static const ChTemplate t = build_ch_template(4);
      return t;
    }
    case 5: {
      static const ChTemplate t = build_ch_template(5);
      return t;
    }
    case 6: {
      static const ChTemplate t = build_ch_template(6);
      return t;
    }
    case 7: {
      static const ChTemplate t = build_ch_template(7);
      return t;
    }
    case 8: {
      static const ChTemplate t = build_ch_template(8);
      return t;
    }
    default:
      throw std::length_error("ch_template: more than 8 vertices");
  }
}

SubdividedComplex subdivide_once(VertexPool& pool,
                                 const SubdividedComplex& prev) {
  TRI_SPAN("topology/subdivide_once");
  obs::MetricsRegistry::global().counter("topology.subdivide.builds").add();
  SubdividedComplex out;
  const ViewInterner views(pool);
  std::size_t stamps = 0;

  // Stamp the per-dimension template onto every simplex. Pool-state
  // equivalence with a per-simplex ordered-partition enumeration (the
  // oracle in tests/topology_template_test.cpp): uniq is in
  // first-occurrence order of the same traversal, a vertex's (members,
  // then ViewInterner::vertex) intern sequence is reproduced per uniq
  // entry, and repeated interning is a no-op — so every pool id comes out
  // identical.
  CompiledComplex::Builder builder;
  std::vector<VertexId> verts;     // uniq index → interned vertex, per σ
  std::vector<ValueId> members;
  std::array<ValueId, 8> pos_int;  // views.member(σ[i]), per σ
  // Canonical (sorted) enumeration, as in that oracle: warm-started
  // ladders (io/store.h) rebuild `prev` from content, so the stamp order —
  // and with it every interned id of the next level — must not depend on
  // the hash-set's insertion history.
  for (const Simplex& sigma : prev.complex.all_simplices()) {
    const std::span<const VertexId> sv = sigma.vertices();
    const std::size_t m = sv.size();
    const ChTemplate& tpl = ch_template(m);
    // First facet of the enumeration is the all-singletons partition in
    // ascending order, so upfront ascending member interning matches the
    // enumeration's first-occurrence order.
    for (std::size_t i = 0; i < m; ++i) pos_int[i] = views.member(sv[i]);
    verts.clear();
    for (const ChTemplate::TVert& tv : tpl.uniq) {
      members.clear();
      for (std::size_t i = 0; i < m; ++i) {
        if (tv.view & (1u << i)) members.push_back(pos_int[i]);
      }
      const VertexId nv =
          views.vertex(pool.color(sv[tv.pos]), {members.begin(), members.end()});
      if (out.carrier.count(nv) == 0) {
        Simplex carrier;
        for (std::size_t i = 0; i < m; ++i) {
          if (tv.view & (1u << i)) carrier = carrier.unite(prev.carrier.at(sv[i]));
        }
        out.carrier.emplace(nv, std::move(carrier));
      }
      verts.push_back(nv);
    }
    const std::uint16_t* slot = tpl.slots.data();
    for (std::size_t f = 0; f < tpl.num_facets; ++f, slot += m) {
      std::vector<VertexId> facet_vertices(m);
      for (std::size_t i = 0; i < m; ++i) facet_vertices[i] = verts[slot[i]];
      Simplex facet(std::move(facet_vertices));
      builder.add(facet);
      out.complex.add(facet);
    }
    stamps += tpl.num_facets;
  }
  obs::MetricsRegistry::global().counter("ladder.template.stamps").add(stamps);
  out.compiled = builder.finish();
#ifndef NDEBUG
  out.compiled->debug_verify_against(out.complex);
#endif
  // Ch-level size distribution: one record per level built. Kozlov's
  // growth rates make this checkable — a pure 2-dimensional level stamps 13
  // facets per facet, so consecutive levels land ~log2(13) buckets apart.
  static obs::Histogram& level_facets =
      obs::MetricsRegistry::global().histogram("ladder.level_facets");
  const int top = out.complex.dimension();
  level_facets.record(top < 0 ? 0 : out.complex.count(top));
  return out;
}

SubdividedComplex chromatic_subdivision(VertexPool& pool, const SimplicialComplex& base,
                                        int rounds) {
  SubdividedComplex cur = identity_subdivision(base);
  for (int r = 0; r < rounds; ++r) {
    cur = subdivide_once(pool, cur);
  }
  return cur;
}

void SubdivisionLadder::seed(std::vector<SubdividedComplex> levels) {
  if (levels.empty()) return;
  levels_.clear();
  for (SubdividedComplex& level : levels) {
    levels_.push_back(
        std::make_shared<const SubdividedComplex>(std::move(level)));
  }
}

std::shared_ptr<const SubdividedComplex> SubdivisionLadder::share(int r) {
  assert(r >= 0);
  if (levels_.empty()) {
    levels_.push_back(
        std::make_shared<const SubdividedComplex>(identity_subdivision(base_)));
  }
  while (max_computed() < r) {
    // Per-radius Ch^r build: the dominant cost of deep probes (Kozlov-style
    // blowup), so each level gets its own span.
    TRI_SPAN("topology/ch/r=", static_cast<long long>(max_computed() + 1));
    levels_.push_back(std::make_shared<const SubdividedComplex>(
        subdivide_once(pool_, *levels_.back())));
  }
  return levels_[static_cast<std::size_t>(r)];
}

}  // namespace trichroma
