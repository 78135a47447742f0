#include "topology/complex.h"

#include <algorithm>
#include <cassert>

namespace trichroma {

std::unordered_set<Simplex, SimplexHash>* SimplicialComplex::level(int d) {
  if (d < 0 || static_cast<std::size_t>(d) >= by_dim_.size()) return nullptr;
  return &by_dim_[static_cast<std::size_t>(d)];
}

const std::unordered_set<Simplex, SimplexHash>* SimplicialComplex::level(int d) const {
  if (d < 0 || static_cast<std::size_t>(d) >= by_dim_.size()) return nullptr;
  return &by_dim_[static_cast<std::size_t>(d)];
}

void SimplicialComplex::add(const Simplex& s) {
  assert(!s.empty());
  if (contains(s)) return;
  const auto d = static_cast<std::size_t>(s.dim());
  if (by_dim_.size() <= d) by_dim_.resize(d + 1);
  for (const Simplex& face : s.faces()) {
    by_dim_[static_cast<std::size_t>(face.dim())].insert(face);
  }
}

void SimplicialComplex::add_all(const SimplicialComplex& other) {
  // Adding only facets suffices: `add` closes under faces.
  for (const Simplex& f : other.facets()) add(f);
}

void SimplicialComplex::remove_with_cofaces(const Simplex& s) {
  if (!contains(s)) return;
  for (int d = s.dim(); d < static_cast<int>(by_dim_.size()); ++d) {
    auto& lvl = by_dim_[static_cast<std::size_t>(d)];
    for (auto it = lvl.begin(); it != lvl.end();) {
      if (it->contains_all(s)) {
        it = lvl.erase(it);
      } else {
        ++it;
      }
    }
  }
  while (!by_dim_.empty() && by_dim_.back().empty()) by_dim_.pop_back();
}

bool SimplicialComplex::contains(const Simplex& s) const {
  const auto* lvl = level(s.dim());
  return lvl != nullptr && lvl->count(s) > 0;
}

bool SimplicialComplex::empty() const {
  for (const auto& lvl : by_dim_)
    if (!lvl.empty()) return false;
  return true;
}

int SimplicialComplex::dimension() const {
  for (int d = static_cast<int>(by_dim_.size()) - 1; d >= 0; --d)
    if (!by_dim_[static_cast<std::size_t>(d)].empty()) return d;
  return -1;
}

std::size_t SimplicialComplex::count(int d) const {
  const auto* lvl = level(d);
  return lvl == nullptr ? 0 : lvl->size();
}

std::size_t SimplicialComplex::total_count() const {
  std::size_t total = 0;
  for (const auto& lvl : by_dim_) total += lvl.size();
  return total;
}

std::vector<Simplex> SimplicialComplex::simplices(int d) const {
  std::vector<Simplex> out;
  const auto* lvl = level(d);
  if (lvl == nullptr) return out;
  out.assign(lvl->begin(), lvl->end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Simplex> SimplicialComplex::all_simplices() const {
  std::vector<Simplex> out;
  for (int d = 0; d <= dimension(); ++d) {
    auto lvl = simplices(d);
    out.insert(out.end(), lvl.begin(), lvl.end());
  }
  return out;
}

std::vector<VertexId> SimplicialComplex::vertex_ids() const {
  std::vector<VertexId> out;
  const auto* lvl = level(0);
  if (lvl == nullptr) return out;
  out.reserve(lvl->size());
  for (const Simplex& s : *lvl) out.push_back(s[0]);
  std::sort(out.begin(), out.end(),
            [](VertexId a, VertexId b) { return raw(a) < raw(b); });
  return out;
}

std::vector<Simplex> SimplicialComplex::facets() const {
  std::vector<Simplex> out;
  for (int d = 0; d < static_cast<int>(by_dim_.size()); ++d) {
    for (const Simplex& s : by_dim_[static_cast<std::size_t>(d)]) {
      // s is maximal iff no simplex one dimension up contains it.
      bool maximal = true;
      const auto* up = level(d + 1);
      if (up != nullptr) {
        for (const Simplex& t : *up) {
          if (t.contains_all(s)) {
            maximal = false;
            break;
          }
        }
      }
      if (maximal) out.push_back(s);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool SimplicialComplex::is_pure() const {
  const int d = dimension();
  if (d < 0) return true;
  for (const Simplex& f : facets())
    if (f.dim() != d) return false;
  return true;
}

SimplicialComplex SimplicialComplex::skeleton(int k) const {
  SimplicialComplex out;
  for (int d = 0; d <= std::min(k, dimension()); ++d) {
    const auto* lvl = level(d);
    if (lvl == nullptr) continue;
    for (const Simplex& s : *lvl) out.add(s);
  }
  return out;
}

SimplicialComplex SimplicialComplex::link(VertexId v) const {
  SimplicialComplex out;
  for (const auto& lvl : by_dim_) {
    for (const Simplex& s : lvl) {
      if (s.contains(v) && s.size() > 1) out.add(s.without(v));
    }
  }
  return out;
}

SimplicialComplex SimplicialComplex::star(VertexId v) const {
  SimplicialComplex out;
  for (const auto& lvl : by_dim_) {
    for (const Simplex& s : lvl) {
      if (s.contains(v)) out.add(s);
    }
  }
  return out;
}

SimplicialComplex SimplicialComplex::induced(
    const std::unordered_set<VertexId, VertexIdHash>& allowed) const {
  SimplicialComplex out;
  for (const auto& lvl : by_dim_) {
    for (const Simplex& s : lvl) {
      bool ok = true;
      for (VertexId v : s) {
        if (allowed.count(v) == 0) {
          ok = false;
          break;
        }
      }
      if (ok) out.add(s);
    }
  }
  return out;
}

long long SimplicialComplex::euler_characteristic() const {
  long long chi = 0;
  for (int d = 0; d < static_cast<int>(by_dim_.size()); ++d) {
    const long long c = static_cast<long long>(by_dim_[static_cast<std::size_t>(d)].size());
    chi += (d % 2 == 0) ? c : -c;
  }
  return chi;
}

bool SimplicialComplex::operator==(const SimplicialComplex& other) const {
  return subcomplex_of(other) && other.subcomplex_of(*this);
}

bool SimplicialComplex::subcomplex_of(const SimplicialComplex& other) const {
  for (const auto& lvl : by_dim_) {
    for (const Simplex& s : lvl) {
      if (!other.contains(s)) return false;
    }
  }
  return true;
}

std::string SimplicialComplex::to_string(const VertexPool& pool) const {
  std::string out;
  for (const Simplex& f : facets()) {
    out += f.to_string(pool);
    out += "\n";
  }
  return out;
}

}  // namespace trichroma
