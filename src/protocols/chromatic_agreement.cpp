#include "protocols/chromatic_agreement.h"

#include <algorithm>
#include <stdexcept>

#include "topology/graph.h"
#include "topology/subdivision.h"

namespace trichroma::protocols {

using runtime::OpPhase;
using runtime::Turn;

namespace {

Simplex simplex_from_scan(const std::vector<std::pair<int, VertexId>>& pairs) {
  std::vector<VertexId> vertices;
  vertices.reserve(pairs.size());
  for (const auto& [pid, v] : pairs) {
    (void)pid;
    vertices.push_back(v);
  }
  return Simplex(std::move(vertices));
}

/// Smallest (or largest) own-color vertex completing `partial` to a simplex
/// of Δ(τ).
std::optional<VertexId> pick_completion(const Task& task, const Simplex& tau,
                                        Color me, const Simplex& partial,
                                        bool pick_largest) {
  std::optional<VertexId> found;
  for (VertexId cand : task.delta.image_complex(tau).vertex_ids()) {
    if (task.pool->color(cand) != me) continue;
    if (!task.delta.allows(tau, partial.with(cand))) continue;
    if (!pick_largest) return cand;  // vertex_ids() is sorted ascending
    found = cand;
  }
  return found;
}

}  // namespace

runtime::ProcessBody agreement_process(AgreementShared& shared, const Task& task,
                                       const ColorlessAlgorithm& algorithm, int pid,
                                       VertexId input, AgreementOutcome& out,
                                       bool pick_largest) {
  VertexPool& pool = *task.pool;
  const Color me = pool.color(input);
  std::size_t& ops = out.operations;

  // (1) Announce the input.
  co_await Turn{OpPhase::Single};
  shared.m_in.update(pid, input);
  ++ops;

  // (2) Run the color-agnostic algorithm A_C: IIS rounds + decision map.
  const ViewInterner views(pool);
  VertexId current = input;
  for (int r = 0; r < algorithm.rounds; ++r) {
    co_await Turn{OpPhase::IsWrite};
    shared.iis.objects[static_cast<std::size_t>(r)].write(pid, raw(current));
    ++ops;
    co_await Turn{OpPhase::IsRead};
    const auto seen = shared.iis.objects[static_cast<std::size_t>(r)].snap();
    ++ops;
    std::vector<ValueId> members;
    members.reserve(seen.size());
    for (const auto& [who, value] : seen) {
      (void)who;
      members.push_back(views.member(VertexId{value}));
    }
    current = views.vertex(me, std::move(members));
  }
  if (!algorithm.decision.defined(current)) {
    throw std::logic_error("A_C decision map undefined on a reachable view");
  }
  const VertexId y = algorithm.decision.apply(current);

  // (3) Publish the color-agnostic output; snapshot into a view V_i.
  co_await Turn{OpPhase::Single};
  shared.m_cless.update(pid, y);
  ++ops;
  co_await Turn{OpPhase::Single};
  std::vector<VertexId> my_view;
  for (const auto& [who, v] : shared.m_cless.scan_present()) {
    (void)who;
    my_view.push_back(v);
  }
  ++ops;
  std::sort(my_view.begin(), my_view.end(),
            [](VertexId a, VertexId b) { return raw(a) < raw(b); });
  my_view.erase(std::unique(my_view.begin(), my_view.end()), my_view.end());

  // (4) Publish the view; snapshot all views.
  co_await Turn{OpPhase::Single};
  shared.m_snap.update(pid, my_view);
  ++ops;
  co_await Turn{OpPhase::Single};
  const auto all_views = shared.m_snap.scan_present();
  ++ops;

  // (5) The core: minimal non-empty view (views are comparable).
  std::vector<VertexId> core;
  for (const auto& [who, view] : all_views) {
    (void)who;
    if (!view.empty() && (core.empty() || view.size() < core.size())) core = view;
  }

  // (6) Pivot: an own-color vertex in the core is the decision.
  for (VertexId v : core) {
    if (pool.color(v) == me) {
      out.pivot = true;
      out.decision = v;
      co_return;
    }
  }

  std::optional<VertexId> anchor;  // the paper's v_i
  if (core.size() == 2) {
    // (7a) Read the participants.
    co_await Turn{OpPhase::Single};
    Simplex tau = simplex_from_scan(shared.m_in.scan_present());
    ++ops;
    // (7b) Complete the 2-core to a facet of Δ(τ) with an own-color vertex.
    anchor = pick_completion(task, tau, me, Simplex{core[0], core[1]}, pick_largest);
    if (!anchor.has_value()) {
      throw std::logic_error("no own-color completion of a 2-core (Lemma 5.3)");
    }
    // (7c) Publish and scan.
    co_await Turn{OpPhase::Single};
    shared.m_decisions.update(pid, {*anchor, *anchor, core});
    ++ops;
    co_await Turn{OpPhase::Single};
    const auto entries = shared.m_decisions.scan_present();
    ++ops;
    // (7d) Alone: decide.
    if (entries.size() == 1) {
      out.decision = *anchor;
      co_return;
    }
    // (7e) Otherwise the other entry carries a singleton core; adopt it.
    for (const auto& [who, entry] : entries) {
      if (who == pid) continue;
      if (entry.core.size() != 1) {
        throw std::logic_error("two distinct 2-cores cannot coexist (Claim 2)");
      }
      core = entry.core;
    }
  }

  // (8) Singleton core.
  if (core.size() != 1) {
    throw std::logic_error("non-pivot reached (8) without a singleton core");
  }
  const VertexId vstar = core[0];

  // (9) Read the participants.
  co_await Turn{OpPhase::Single};
  Simplex tau = simplex_from_scan(shared.m_in.scan_present());
  ++ops;

  // (10) Pick an own-color neighbor of v* if (7) was not executed.
  if (!anchor.has_value()) {
    anchor = pick_completion(task, tau, me, Simplex::single(vstar), pick_largest);
    if (!anchor.has_value()) {
      throw std::logic_error("no own-color neighbor of the core vertex (Lemma 5.3)");
    }
  }

  // (11) Publish and scan.
  co_await Turn{OpPhase::Single};
  shared.m_decisions.update(pid, {*anchor, *anchor, core});
  ++ops;
  co_await Turn{OpPhase::Single};
  auto entries = shared.m_decisions.scan_present();
  ++ops;

  // (12) Alone: decide.
  if (entries.size() == 1) {
    out.decision = *anchor;
    co_return;
  }

  // (13) Negotiate with the other non-pivot along the canonical path Π in
  // the link of v*. Deviation (b): re-scan M_in so both negotiators compute
  // the link with the same participant set.
  int other_pid = -1;
  AgreementShared::DecisionEntry other;
  for (const auto& [who, entry] : entries) {
    if (who != pid) {
      other_pid = who;
      other = entry;
    }
  }
  co_await Turn{OpPhase::Single};
  tau = simplex_from_scan(shared.m_in.scan_present());
  ++ops;
  const SimplicialComplex link = task.delta.image_complex(tau).link(vstar);
  const auto pi = lex_min_shortest_path_symmetric(link, *anchor, other.anchor);
  if (!pi.has_value()) {
    throw std::logic_error("no link path between anchors (task not link-connected?)");
  }

  // (14) Jump toward the other process until the proposals span a link
  // edge. The new proposal is the neighbor of the other's proposal on Π *on
  // the side of our current proposal* — i.e. inside the sub-path between
  // the two prior proposals, which is what makes the distance strictly
  // decrease (the proof of Lemma 5.3). Orienting toward our original
  // anchor instead diverges: under a lockstep adversary the two proposals
  // cross and then oscillate forever.
  VertexId proposal = *anchor;
  VertexId other_proposal = other.proposal;
  while (!link.contains(Simplex{proposal, other_proposal})) {
    ++out.jumps;
    const auto it = std::find(pi->begin(), pi->end(), other_proposal);
    const auto mine = std::find(pi->begin(), pi->end(), proposal);
    if (it == pi->end() || mine == pi->end()) {
      throw std::logic_error("a proposal left the agreed path");
    }
    const std::size_t k = static_cast<std::size_t>(it - pi->begin());
    const std::size_t my_k = static_cast<std::size_t>(mine - pi->begin());
    if (k == my_k) {
      throw std::logic_error("proposals collided despite distinct colors");
    }
    proposal = (*pi)[my_k < k ? k - 1 : k + 1];
    co_await Turn{OpPhase::Single};
    shared.m_decisions.update(pid, {*anchor, proposal, core});
    ++ops;
    co_await Turn{OpPhase::Single};
    entries = shared.m_decisions.scan_present();
    ++ops;
    for (const auto& [who, entry] : entries) {
      if (who == other_pid) other_proposal = entry.proposal;
    }
  }

  // (15) The proposals span an edge of the link: decide.
  out.decision = proposal;
}

std::vector<AgreementOutcome> run_agreement(
    const Task& task, const ColorlessAlgorithm& algorithm,
    const std::vector<std::pair<int, VertexId>>& inputs, std::uint64_t seed,
    bool spread_anchors) {
  int max_pid = 0;
  for (const auto& [pid, input] : inputs) {
    (void)input;
    max_pid = std::max(max_pid, pid);
  }
  AgreementShared shared(max_pid + 1, algorithm.rounds);
  std::vector<AgreementOutcome> outcomes(inputs.size());
  std::vector<runtime::ProcessBody> processes(static_cast<std::size_t>(max_pid + 1));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& [pid, input] = inputs[i];
    const bool pick_largest = spread_anchors && (pid % 2 == 1);
    processes[static_cast<std::size_t>(pid)] = agreement_process(
        shared, task, algorithm, pid, input, outcomes[i], pick_largest);
  }
  runtime::Executor executor(std::move(processes));
  std::mt19937_64 rng(seed);
  executor.run_random(rng);
  return outcomes;
}

bool outcomes_valid(const Task& task,
                    const std::vector<std::pair<int, VertexId>>& inputs,
                    const std::vector<AgreementOutcome>& outcomes) {
  const VertexPool& pool = *task.pool;
  std::vector<VertexId> in_verts, decisions;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& [pid, input] = inputs[i];
    if (!outcomes[i].decision.has_value()) return false;
    const VertexId d = *outcomes[i].decision;
    if (pool.color(d) != static_cast<Color>(pid)) return false;
    if (pool.color(input) != static_cast<Color>(pid)) return false;
    in_verts.push_back(input);
    decisions.push_back(d);
  }
  const Simplex tau{Simplex(std::move(in_verts))};
  const Simplex out{Simplex(std::move(decisions))};
  return task.output.contains(out) && task.delta.allows(tau, out);
}

}  // namespace trichroma::protocols
