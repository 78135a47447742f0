#include "solver/solvability.h"

#include <utility>

namespace trichroma {

namespace {

SolvabilityResult from_pipeline(PipelineResult pipeline) {
  SolvabilityResult result;
  result.verdict = pipeline.report.verdict;
  result.reason = pipeline.report.reason;
  result.radius = pipeline.report.radius;
  result.via_characterization = pipeline.report.via_characterization;
  result.has_chromatic_witness = pipeline.has_chromatic_witness;
  result.witness_domain = std::move(pipeline.witness_domain);
  result.witness = std::move(pipeline.witness);
  result.characterization = std::move(pipeline.characterization);
  result.cor55 = std::move(pipeline.cor55);
  result.cor56 = std::move(pipeline.cor56);
  result.report =
      std::make_shared<const PipelineReport>(std::move(pipeline.report));
  return result;
}

}  // namespace

SolvabilityResult decide_solvability(const Task& task,
                                     const SolvabilityOptions& options) {
  return from_pipeline(run_pipeline(task, options));
}

SolvabilityResult decide_two_process(const Task& task,
                                     const SolvabilityOptions& options) {
  // Runs the exact Proposition 5.4 engine directly, whatever
  // task.num_processes claims (callers probe two-process subtasks).
  SolvabilityResult result;
  TwoProcessEngine engine(task);
  CancellationToken token;
  EngineBudget budget;
  budget.max_radius = options.max_radius;
  budget.node_cap = options.node_cap;
  const EngineReport report = engine.run(budget, token);
  if (report.status == EngineStatus::Conclusive) {
    result.verdict = report.verdict;
    result.reason = report.reason;
  } else {
    result.verdict = Verdict::Unknown;
    result.reason = report.detail;
  }
  PipelineReport pipeline_report;
  pipeline_report.task_name = task.name;
  pipeline_report.num_processes = task.num_processes;
  pipeline_report.options = options;
  pipeline_report.schedule = "exact";
  pipeline_report.verdict = result.verdict;
  pipeline_report.reason = result.reason;
  pipeline_report.total_wall_ms = report.wall_ms;
  pipeline_report.engines.push_back(report);
  result.report =
      std::make_shared<const PipelineReport>(std::move(pipeline_report));
  return result;
}

MapSearchResult colorless_probe(const Task& task,
                                const SolvabilityOptions& options) {
  ProbeEngine probe(task, ProbeKind::ColorlessDirect);
  CancellationToken token;
  EngineBudget budget;
  budget.max_radius = options.max_radius;
  budget.node_cap = options.node_cap;
  budget.reuse_subdivisions = options.reuse_subdivisions;
  budget.reuse_images = options.reuse_images;
  probe.run(budget, token);
  return probe.last();
}

MapSearchResult colorless_probe(const Task& task, int max_radius,
                                std::size_t node_cap) {
  SolvabilityOptions options;
  options.max_radius = max_radius;
  options.node_cap = node_cap;
  return colorless_probe(task, options);
}

}  // namespace trichroma
