#include "solver/engine.h"

#include <array>
#include <chrono>
#include <utility>

#include "io/store.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "topology/subdivision.h"

namespace trichroma {

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::Solvable:
      return "SOLVABLE";
    case Verdict::Unsolvable:
      return "UNSOLVABLE";
    case Verdict::Unknown:
      return "UNKNOWN";
  }
  return "?";
}

const char* to_string(EngineSide s) {
  switch (s) {
    case EngineSide::Exact:
      return "exact";
    case EngineSide::Impossibility:
      return "impossibility";
    case EngineSide::Possibility:
      return "possibility";
    case EngineSide::Support:
      return "support";
  }
  return "?";
}

const char* to_string(EngineStatus s) {
  switch (s) {
    case EngineStatus::Conclusive:
      return "conclusive";
    case EngineStatus::Inconclusive:
      return "inconclusive";
    case EngineStatus::Completed:
      return "completed";
    case EngineStatus::Cancelled:
      return "cancelled";
    case EngineStatus::Skipped:
      return "skipped";
  }
  return "?";
}

EngineReport AnalysisEngine::skipped() const {
  EngineReport report;
  report.name = name();
  report.side = side();
  report.precedence = precedence();
  report.status = EngineStatus::Skipped;
  return report;
}

EngineReport AnalysisEngine::run(const EngineBudget& budget,
                                 const CancellationToken& token) {
  EngineReport report = skipped();
  if (token.stop_requested()) {
    report.status = EngineStatus::Cancelled;
    obs::trace_instant("pipeline/cancelled/", name());
    obs::MetricsRegistry::global().counter("pipeline.engines_cancelled").add();
    return report;
  }
  const auto start = std::chrono::steady_clock::now();
  {
    TRI_SPAN("engine/", name());
    execute(budget, report);
  }
  report.wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                start)
          .count();
  obs::MetricsRegistry::global().counter("pipeline.engines_run").add();
  if (report.status == EngineStatus::Conclusive) {
    obs::trace_instant("pipeline/conclusive/", name());
    obs::MetricsRegistry::global().counter("pipeline.engines_conclusive").add();
  }
  return report;
}

void TwoProcessEngine::execute(const EngineBudget& budget,
                               EngineReport& report) {
  const ConnectivityCsp csp = connectivity_csp(task_, budget.node_cap);
  report.nodes_explored = csp.nodes_explored;
  report.detail = csp.detail;
  if (csp.feasible) {
    report.status = EngineStatus::Conclusive;
    report.verdict = Verdict::Solvable;
    report.reason =
        "Proposition 5.4: a corner assignment with connected edge images "
        "exists, giving a continuous map |I| -> |O| carried by Δ";
  } else if (csp.exhausted) {
    report.status = EngineStatus::Conclusive;
    report.verdict = Verdict::Unsolvable;
    report.reason =
        "Proposition 5.4: no continuous map |I| -> |O| carried by Δ (" +
        csp.detail + ")";
  } else {
    report.status = EngineStatus::Inconclusive;
  }
}

void GenericConnectivityEngine::execute(const EngineBudget& budget,
                                        EngineReport& report) {
  const ConnectivityCsp csp = connectivity_csp(task_, budget.node_cap);
  report.nodes_explored = csp.nodes_explored;
  report.detail = csp.detail;
  if (!csp.feasible && csp.exhausted) {
    report.status = EngineStatus::Conclusive;
    report.verdict = Verdict::Unsolvable;
    report.reason =
        "connectivity obstruction (n-process generic engine): " + csp.detail;
  } else {
    report.status = EngineStatus::Inconclusive;
  }
}

void CharacterizeEngine::execute(const EngineBudget& /*budget*/,
                                 EngineReport& report) {
  result_ = std::make_shared<CharacterizationResult>(characterize(task_));
  report.status = EngineStatus::Completed;
  report.detail = result_->report(*task_.pool);
}

void Corollary55Engine::execute(const EngineBudget& /*budget*/,
                                EngineReport& report) {
  result_ = corollary_5_5(tstar_);
  report.detail = result_.detail;
  if (result_.fires) {
    report.status = EngineStatus::Conclusive;
    report.verdict = Verdict::Unsolvable;
    report.reason = "Corollary 5.5 on T*: " + result_.detail;
  } else {
    report.status = EngineStatus::Inconclusive;
  }
}

void Corollary56Engine::execute(const EngineBudget& /*budget*/,
                                EngineReport& report) {
  result_ = corollary_5_6(tstar_);
  report.detail = result_.detail;
  if (result_.fires) {
    report.status = EngineStatus::Conclusive;
    report.verdict = Verdict::Unsolvable;
    report.reason = "Corollary 5.6 on T*: " + result_.detail;
  } else {
    report.status = EngineStatus::Inconclusive;
  }
}

void PostSplitCspEngine::execute(const EngineBudget& budget,
                                 EngineReport& report) {
  const ConnectivityCsp csp = connectivity_csp(tp_, budget.node_cap);
  report.nodes_explored = csp.nodes_explored;
  report.detail = csp.detail;
  if (!csp.feasible && csp.exhausted) {
    report.status = EngineStatus::Conclusive;
    report.verdict = Verdict::Unsolvable;
    report.reason =
        "post-split connectivity obstruction on T' (Theorem 5.1 + "
        "Corollary 5.5 shape): " +
        csp.detail;
  } else {
    report.status = EngineStatus::Inconclusive;
  }
}

void HomologyEngine::execute(const EngineBudget& budget, EngineReport& report) {
  const HomologyObstruction hom =
      homology_boundary_check(tp_, {2, 3}, budget.node_cap);
  report.nodes_explored = hom.nodes_explored;
  report.detail = hom.detail;
  if (!hom.feasible && hom.exhausted) {
    report.status = EngineStatus::Conclusive;
    report.verdict = Verdict::Unsolvable;
    report.reason =
        "post-split homological obstruction on T' (no continuous map "
        "|I| -> |O'| carried by Δ'): " +
        hom.detail;
  } else {
    report.status = EngineStatus::Inconclusive;
  }
}

namespace {

const char* capped_label(ProbeKind kind) {
  switch (kind) {
    case ProbeKind::DirectChromatic:
      return "chromatic probe at radius ";
    case ProbeKind::LinkConnectedAgnostic:
      return "T'-agnostic (colorless) probe at radius ";
    case ProbeKind::ColorlessDirect:
      return "colorless probe at radius ";
  }
  return "probe at radius ";
}

std::string found_reason(ProbeKind kind, int radius) {
  const std::string r = std::to_string(radius);
  switch (kind) {
    case ProbeKind::DirectChromatic:
      return "chromatic decision map found on Ch^" + r + "(I)";
    case ProbeKind::LinkConnectedAgnostic:
      return "color-agnostic decision map found on the link-connected task "
             "T' at Ch^" +
             r + "(I); solvable by Theorem 5.1 via the Figure-7 algorithm";
    case ProbeKind::ColorlessDirect:
      return "color-agnostic decision map found on Ch^" + r + "(I)";
  }
  return "decision map found at radius " + r;
}

}  // namespace

const char* ProbeEngine::name() const {
  switch (kind_) {
    case ProbeKind::DirectChromatic:
      return "chromatic-probe";
    case ProbeKind::LinkConnectedAgnostic:
      return "tp-agnostic-probe";
    case ProbeKind::ColorlessDirect:
      return "colorless-probe";
  }
  return "probe";
}

int ProbeEngine::precedence() const {
  switch (kind_) {
    case ProbeKind::DirectChromatic:
      return engine_precedence::kChromaticProbe;
    case ProbeKind::LinkConnectedAgnostic:
      return engine_precedence::kAgnosticProbe;
    case ProbeKind::ColorlessDirect:
      return engine_precedence::kColorlessProbe;
  }
  return engine_precedence::kColorlessProbe;
}

void ProbeEngine::execute(const EngineBudget& budget, EngineReport& report) {
  MapSearchOptions options;
  options.chromatic = (kind_ == ProbeKind::DirectChromatic);
  options.node_cap = budget.node_cap;
  DeltaImageCache images;
  if (budget.reuse_images) options.image_cache = &images;
  SubdivisionLadder ladder(*task_.pool, task_.input);

  // Warm start: materialize stored artifacts under this task's identity
  // before the first rung. The ladder loader re-interns subdivision
  // vertices in the writer's (= a cold build's) order, so probing resumes
  // from exactly the pool state a cold climb would have reached; any
  // malformed body degrades to a cold rebuild. The tower is truncated to
  // the live radius budget — deeper levels would intern vertices a cold
  // run never creates. Preloaded Δ-images charge their first touch as a
  // miss (DeltaImageCache::preload), keeping every counter as-if-cold.
  seeded_levels_ = 0;
  seeded_images_ = 0;
  if (seed_ != nullptr && kind_ == ProbeKind::DirectChromatic) {
    if (budget.reuse_subdivisions && !seed_->ladder_body.empty()) {
      std::vector<SubdividedComplex> levels;
      if (io::load_ladder_levels(
              task_, seed_->labeling, seed_->ladder_body, &levels,
              static_cast<std::size_t>(budget.max_radius) + 1)) {
        seeded_levels_ = static_cast<int>(levels.size());
        ladder.seed(std::move(levels));
      }
    }
    if (budget.reuse_images && !seed_->images_body.empty()) {
      std::vector<std::pair<Simplex, std::vector<Simplex>>> rows;
      if (io::load_delta_images(task_, seed_->labeling, seed_->images_body,
                                &rows)) {
        for (const auto& [src, facets] : rows) images.preload(src, facets);
        seeded_images_ = static_cast<int>(rows.size());
      }
    }
  }

  // Eagerly compile every Δ-image the CSPs can ask for: the carriers of all
  // subdivision cells at every radius are exactly the base simplices, so
  // this one pass makes every later image_of call a pure lookup. Artifact
  // preloads above are skipped, and warm accounting keeps hit/miss
  // counters as-if-cold (map_search.h).
  if (budget.reuse_images) {
    images.populate(task_.delta, task_.input.all_simplices());
  }

  report.status = EngineStatus::Inconclusive;
  // Deterministic shape telemetry, accumulated across rungs: the merged
  // CSP domain-size histogram and the per-level facet counts (both pure
  // functions of task + budget; see EngineReport).
  std::array<std::uint64_t, obs::Histogram::kBuckets> domain_hist{};
  for (int r = 0; r <= budget.max_radius; ++r) {
    TRI_SPAN("probe/r=", static_cast<long long>(r));
    std::shared_ptr<const SubdividedComplex> domain =
        budget.reuse_subdivisions
            ? ladder.share(r)
            : std::make_shared<const SubdividedComplex>(
                  chromatic_subdivision(*task_.pool, task_.input, r));
    computed_levels_.push_back(domain);
    const int top = domain->complex.dimension();
    report.level_facets.push_back(
        top < 0 ? 0 : static_cast<std::uint64_t>(domain->complex.count(top)));
    last_ = find_decision_map(*task_.pool, *domain, task_, options);
    report.radius_reached = r;
    report.nodes_explored += last_.nodes_explored;
    for (std::size_t i = 0; i < last_.domain_size_hist.size(); ++i) {
      domain_hist[i] += last_.domain_size_hist[i];
    }
    report.domain_size_count += last_.domain_size_count;
    report.domain_size_sum += last_.domain_size_sum;
    if (last_.found) {
      found_ = true;
      found_radius_ = r;
      witness_domain_ = std::move(domain);
      report.status = EngineStatus::Conclusive;
      report.verdict = Verdict::Solvable;
      report.witness_radius = r;
      report.reason = found_reason(kind_, r);
      break;
    }
    if (last_.domain_overflow) {
      // Representation limit, not a budget cap: keep climbing (larger radii
      // have different domains), but record the rung for the Unknown reason.
      report.overflowed.push_back(capped_label(kind_) + std::to_string(r));
    } else if (!last_.exhausted) {
      report.capped.push_back(capped_label(kind_) + std::to_string(r));
    }
  }
  if (report.domain_size_count != 0) {
    std::size_t buckets = obs::Histogram::kBuckets;
    while (buckets > 1 && domain_hist[buckets - 1] == 0) --buckets;
    report.domain_size_hist.assign(domain_hist.begin(),
                                   domain_hist.begin() +
                                       static_cast<std::ptrdiff_t>(buckets));
  }
  report.image_cache_hits = images.hits();
  report.image_cache_misses = images.misses();
  report.edge_mask_hits = images.edge_mask_hits();
  report.edge_mask_misses = images.edge_mask_misses();
}

MapSearchResult colorless_probe(const Task& task, int max_radius,
                                std::size_t node_cap) {
  ProbeEngine probe(task, ProbeKind::ColorlessDirect);
  probe.run(EngineBudget{.max_radius = max_radius, .node_cap = node_cap},
            CancellationToken{});
  return probe.last();
}

}  // namespace trichroma
