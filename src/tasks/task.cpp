#include "tasks/task.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>

#include "topology/chromatic.h"
#include "topology/compiled.h"
#include "topology/graph.h"

namespace trichroma {

std::vector<std::string> Task::validate(bool relax_vertex_monotonicity) const {
  std::vector<std::string> errors;
  if (pool == nullptr) {
    errors.push_back("task has no vertex pool");
    return errors;
  }
  const int expect_dim = num_processes - 1;
  if (input.dimension() != expect_dim) {
    errors.push_back("input complex has dimension " +
                     std::to_string(input.dimension()) + ", expected " +
                     std::to_string(expect_dim));
  }
  if (output.dimension() != expect_dim) {
    errors.push_back("output complex has dimension " +
                     std::to_string(output.dimension()) + ", expected " +
                     std::to_string(expect_dim));
  }
  if (!is_chromatic_complex(*pool, input)) {
    errors.push_back("input complex is not chromatic");
  }
  if (!is_chromatic_complex(*pool, output)) {
    errors.push_back("output complex is not chromatic");
  }
  for (std::string& e : delta.validate(*pool, input, relax_vertex_monotonicity)) {
    errors.push_back(std::move(e));
  }
  // Image simplices must exist in the output complex, and the output complex
  // must be fully reachable.
  input.for_each([&](const Simplex& sigma) {
    for (const Simplex& tau : delta.facet_images(sigma)) {
      if (!output.contains(tau)) {
        errors.push_back("Δ(" + sigma.to_string(*pool) + ") ∋ " +
                         tau.to_string(*pool) + " missing from output complex");
      }
    }
  });
  const SimplicialComplex reachable = delta.reachable_output(input);
  if (!(reachable == output)) {
    errors.push_back("output complex is not exactly the reachable part ∪σ Δ(σ)");
  }
  return errors;
}

bool Task::is_canonical() const {
  // Canonicity = Δ is "one-to-one" (Section 3): an output simplex may be a
  // facet image of at most one input simplex (of its own dimension). The
  // images of distinct inputs may still share lower-dimensional faces, which
  // is exactly the allowance the paper makes for σ1 ∩ σ2 ≠ ∅.
  std::unordered_map<Simplex, Simplex, SimplexHash> owner;
  bool ok = true;
  input.for_each([&](const Simplex& tau) {
    for (const Simplex& rho : delta.facet_images(tau)) {
      auto [it, inserted] = owner.emplace(rho, tau);
      if (!inserted && !(it->second == tau)) ok = false;
    }
  });
  return ok;
}

bool Task::is_link_connected() const {
  const int top = input.dimension();
  for (const Simplex& sigma : input.simplices(top)) {
    if (!trichroma::is_link_connected(delta.facet_images(sigma))) return false;
  }
  return true;
}

bool is_link_connected(const std::vector<Simplex>& facets) {
  const auto image = CompiledComplex::of_facets(facets);
  const auto nv = static_cast<CompiledComplex::Local>(image->num_vertices());
  for (CompiledComplex::Local y = 0; y < nv; ++y) {
    if (image->link_component_count(y) > 1) return false;
  }
  return true;
}

std::string Task::summary() const {
  std::string out = "task '" + name + "': " + std::to_string(num_processes) +
                    " processes\n";
  out += "  input:  " + std::to_string(input.count(0)) + " vertices, " +
         std::to_string(input.count(1)) + " edges, " +
         std::to_string(input.count(2)) + " triangles\n";
  out += "  output: " + std::to_string(output.count(0)) + " vertices, " +
         std::to_string(output.count(1)) + " edges, " +
         std::to_string(output.count(2)) + " triangles\n";
  out += std::string("  canonical: ") + (is_canonical() ? "yes" : "no") +
         ", link-connected: " + (is_link_connected() ? "yes" : "no") + "\n";
  return out;
}

Task clone_task(const Task& task) {
  Task out;
  out.name = task.name;
  out.num_processes = task.num_processes;
  out.pool = std::make_shared<VertexPool>();

  // Replay the value pool in id order. Tuple/Set children always have lower
  // ids than their parents, and a deduplicated pool replayed in order never
  // re-interns an existing entry, so every value keeps its id.
  const ValuePool& src = task.pool->values();
  ValuePool& dst = out.pool->values();
  for (std::uint32_t i = 0; i < src.size(); ++i) {
    const ValueId id{i};
    ValueId copied{};
    switch (src.kind(id)) {
      case ValuePool::Kind::Int:
        copied = dst.of_int(src.as_int(id));
        break;
      case ValuePool::Kind::Str:
        copied = dst.of_string(src.as_string(id));
        break;
      case ValuePool::Kind::Tuple:
        copied = dst.of_tuple(src.elements(id));
        break;
      case ValuePool::Kind::Set: {
        const auto elems = src.elements(id);
        copied = dst.of_set(std::vector<ValueId>(elems.begin(), elems.end()));
        break;
      }
    }
    if (copied != id) {
      throw std::logic_error("clone_task: value replay changed an id");
    }
  }
  // Same argument for the vertices themselves.
  for (std::uint32_t i = 0; i < task.pool->size(); ++i) {
    const VertexId id{i};
    const VertexId copied =
        out.pool->vertex(task.pool->color(id), task.pool->value(id));
    if (copied != id) {
      throw std::logic_error("clone_task: vertex replay changed an id");
    }
  }

  // Ids are identical, so the id-based structures copy verbatim.
  out.input = task.input;
  out.output = task.output;
  out.delta = task.delta;
  return out;
}

}  // namespace trichroma
