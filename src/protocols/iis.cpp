#include "protocols/iis.h"

#include "topology/subdivision.h"

namespace trichroma::protocols {

using runtime::OpPhase;
using runtime::Turn;

runtime::ProcessBody iis_process(IisShared& shared, VertexPool& pool, int pid,
                                 VertexId input, int rounds,
                                 const VertexMap* decision_map, IisOutcome& out) {
  const ViewInterner views(pool);
  const Color color = pool.color(input);

  VertexId current = input;
  for (int r = 0; r < rounds; ++r) {
    co_await Turn{OpPhase::IsWrite};
    shared.objects[static_cast<std::size_t>(r)].write(pid, raw(current));
    co_await Turn{OpPhase::IsRead};
    const auto seen = shared.objects[static_cast<std::size_t>(r)].snap();
    // The vertex for (my color, set of vertices seen), as Ch^r interns it.
    std::vector<ValueId> members;
    members.reserve(seen.size());
    for (const auto& [who, value] : seen) {
      (void)who;
      members.push_back(views.member(VertexId{value}));
    }
    current = views.vertex(color, std::move(members));
  }
  out.view = current;
  if (decision_map != nullptr && decision_map->defined(current)) {
    out.decision = decision_map->apply(current);
  }
}

std::vector<IisOutcome> run_iis(VertexPool& pool,
                                const std::vector<std::pair<int, VertexId>>& inputs,
                                int rounds, const VertexMap* decision_map,
                                const runtime::Schedule& schedule) {
  int max_pid = 0;
  for (const auto& [pid, input] : inputs) {
    (void)input;
    max_pid = std::max(max_pid, pid);
  }
  IisShared shared(max_pid + 1, rounds);
  std::vector<IisOutcome> outcomes(inputs.size());
  std::vector<runtime::ProcessBody> processes(static_cast<std::size_t>(max_pid + 1));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& [pid, input] = inputs[i];
    processes[static_cast<std::size_t>(pid)] = iis_process(
        shared, pool, pid, input, rounds, decision_map, outcomes[i]);
  }
  runtime::Executor executor(std::move(processes));
  executor.run(schedule);
  return outcomes;
}

}  // namespace trichroma::protocols
