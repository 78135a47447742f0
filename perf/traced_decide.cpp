#include "traced_decide.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/characterization.h"
#include "core/link_connected.h"
#include "core/obstructions.h"
#include "io/store.h"
#include "obs/metrics.h"
#include "solver/engine.h"
#include "solver/map_search.h"
#include "tasks/canonical.h"
#include "tasks/fingerprint.h"
#include "topology/graph.h"
#include "topology/homology.h"

namespace trichroma::perf {

namespace {

using Clock = std::chrono::steady_clock;

std::size_t facet_count(const SimplicialComplex& k) {
  const int top = k.dimension();
  return top < 0 ? 0 : k.count(top);
}

// --- strings the pipeline renders into reports (solver/engine.cpp and
// solver/pipeline.cpp); the byte-identical report check pins them -------

std::string capped_label(ProbeKind kind, int r) {
  return (kind == ProbeKind::DirectChromatic
              ? std::string("chromatic probe at radius ")
              : std::string("T'-agnostic (colorless) probe at radius ")) +
         std::to_string(r);
}

std::string found_reason(ProbeKind kind, int r) {
  const std::string radius = std::to_string(r);
  if (kind == ProbeKind::DirectChromatic) {
    return "chromatic decision map found on Ch^" + radius + "(I)";
  }
  return "color-agnostic decision map found on the link-connected task "
         "T' at Ch^" +
         radius + "(I); solvable by Theorem 5.1 via the Figure-7 algorithm";
}

std::string unknown_reason(const SolvabilityOptions& options,
                           const std::vector<EngineReport>& engines) {
  std::vector<std::string> capped;
  std::vector<std::string> overflowed;
  for (const char* name : {"chromatic-probe", "tp-agnostic-probe"}) {
    for (const EngineReport& e : engines) {
      if (e.name != name) continue;
      capped.insert(capped.end(), e.capped.begin(), e.capped.end());
      overflowed.insert(overflowed.end(), e.overflowed.begin(), e.overflowed.end());
    }
  }
  if (capped.empty() && overflowed.empty()) {
    return "no decision map up to radius " + std::to_string(options.max_radius) +
           " and no obstruction found";
  }
  const auto join = [](const std::vector<std::string>& probes) {
    std::string which;
    for (const std::string& probe : probes) which += (which.empty() ? "" : "; ") + probe;
    return which;
  };
  std::string reason;
  if (!overflowed.empty()) {
    reason = "decision-map domain wider than 64 values (word-parallel CSP "
             "limit) for: " +
             join(overflowed);
  }
  if (!capped.empty()) {
    if (!reason.empty()) reason += "; ";
    reason += "search budget exhausted before a conclusion (node cap " +
              std::to_string(options.node_cap) + " hit by: " + join(capped) + ")";
  }
  return reason;
}

// --- the probe ladder (ProbeEngine::execute), one span per layer call ----

struct ProbeRun {
  EngineReport report;
  bool found = false;
  int found_radius = -1;
  VertexMap witness;
  std::shared_ptr<const SubdividedComplex> witness_domain;
  std::vector<std::shared_ptr<const SubdividedComplex>> levels;
  int seeded_levels = 0;
  int seeded_images = 0;
};

ProbeRun run_probe(const Task& task, ProbeKind kind, const EngineBudget& budget,
                   const ProbeSeed* seed, Tracer& tracer) {
  ProbeRun out;
  EngineReport& report = out.report;
  report = ProbeEngine(task, kind).skipped();
  MapSearchOptions options;
  options.chromatic = kind == ProbeKind::DirectChromatic;
  options.node_cap = budget.node_cap;
  options.threads = budget.threads;
  std::optional<DeltaImageCache> images;
  images.emplace();
  options.image_cache = &*images;
  std::optional<SubdivisionLadder> ladder;
  {
    Span span(tracer, Layer::kLadder);
    ladder.emplace(*task.pool, task.input);
  }

  if (seed != nullptr && kind == ProbeKind::DirectChromatic) {
    if (!seed->ladder_body.empty()) {
      std::vector<SubdividedComplex> levels;
      bool loaded = false;
      {
        Span span(tracer, Layer::kArtifactRead);
        loaded = io::load_ladder_levels(
            task, seed->labeling, seed->ladder_body, &levels,
            static_cast<std::size_t>(budget.max_radius) + 1);
      }
      if (loaded) {
        out.seeded_levels = static_cast<int>(levels.size());
        Span span(tracer, Layer::kLadder);
        ladder->seed(std::move(levels));
      }
    }
    if (!seed->images_body.empty()) {
      std::vector<std::pair<Simplex, std::vector<Simplex>>> rows;
      bool loaded = false;
      {
        Span span(tracer, Layer::kArtifactRead);
        loaded = io::load_delta_images(task, seed->labeling, seed->images_body, &rows);
      }
      if (loaded) {
        Span span(tracer, Layer::kDeltaImages);
        for (const auto& [src, facets] : rows) images->preload(src, facets);
        out.seeded_images = static_cast<int>(rows.size());
      }
    }
  }
  {
    Span span(tracer, Layer::kDeltaImages);
    images->populate(task.delta, task.input.all_simplices(), 1);
  }

  report.status = EngineStatus::Inconclusive;
  std::array<std::uint64_t, obs::Histogram::kBuckets> domain_hist{};
  for (int r = 0; r <= budget.max_radius; ++r) {
    std::shared_ptr<const SubdividedComplex> domain;
    {
      Span span(tracer, Layer::kLadder);
      domain = ladder->share(r);
    }
    out.levels.push_back(domain);
    const std::uint64_t facets = facet_count(domain->complex);
    report.level_facets.push_back(facets);
    tracer.work.ladder_facets += facets;
    MapSearchResult last;
    {
      Span span(tracer, Layer::kFindDecisionMap);
      last = find_decision_map(*task.pool, *domain, task, options);
    }
    tracer.work.search_nodes += last.nodes_explored;
    report.radius_reached = r;
    report.nodes_explored += last.nodes_explored;
    for (std::size_t i = 0; i < last.domain_size_hist.size(); ++i) {
      domain_hist[i] += last.domain_size_hist[i];
    }
    report.domain_size_count += last.domain_size_count;
    report.domain_size_sum += last.domain_size_sum;
    if (last.found) {
      out.found = true;
      out.found_radius = r;
      out.witness = std::move(last.map);
      out.witness_domain = std::move(domain);
      report.status = EngineStatus::Conclusive;
      report.verdict = Verdict::Solvable;
      report.witness_radius = r;
      report.reason = found_reason(kind, r);
      break;
    }
    if (last.domain_overflow) {
      report.overflowed.push_back(capped_label(kind, r));
    } else if (!last.exhausted) {
      report.capped.push_back(capped_label(kind, r));
    }
  }
  if (report.domain_size_count != 0) {
    std::size_t buckets = obs::Histogram::kBuckets;
    while (buckets > 1 && domain_hist[buckets - 1] == 0) --buckets;
    report.domain_size_hist.assign(
        domain_hist.begin(), domain_hist.begin() + static_cast<std::ptrdiff_t>(buckets));
  }
  report.image_cache_hits = images->hits();
  report.image_cache_misses = images->misses();
  report.edge_mask_hits = images->edge_mask_hits();
  report.edge_mask_misses = images->edge_mask_misses();
  tracer.work.image_hits += images->hits();
  tracer.work.image_misses += images->misses();
  tracer.work.mask_hits += images->edge_mask_hits();
  tracer.work.mask_misses += images->edge_mask_misses();
  // ProbeEngine frees its ladder and image cache before it returns.
  {
    Span span(tracer, Layer::kLadder);
    ladder.reset();
  }
  {
    Span span(tracer, Layer::kDeltaImages);
    images.reset();
  }
  return out;
}

std::uint64_t parse_splits(const std::string& detail) {
  static const std::string kKey = "splits performed: ";
  const std::size_t at = detail.find(kKey);
  return at == std::string::npos ? 0 : std::stoull(detail.substr(at + kKey.size()));
}

const EngineReport* best_conclusive(const std::vector<EngineReport>& engines) {
  const EngineReport* best = nullptr;
  for (const EngineReport& e : engines) {
    if (e.status != EngineStatus::Conclusive) continue;
    if (best == nullptr || e.precedence < best->precedence) best = &e;
  }
  return best;
}

}  // namespace

const char* layer_name(Layer layer) {
  static constexpr std::array<const char*, kLayerCount> kNames = {
      "tasks.clone_task",         "tasks.canonicalize",
      "tasks.fingerprint",        "core.characterize",
      "core.make_link_connected", "topology.betti_numbers",
      "core.corollary_5_5",       "core.corollary_5_6",
      "core.connectivity_csp",    "core.homology_boundary_check",
      "topology.ladder",          "solver.delta_images",
      "solver.find_decision_map", "io.store.load_verdict",
      "io.store.scan_siblings",   "io.store.artifact_read",
      "io.store.store_verdict",   "io.store.artifact_write",
  };
  return kNames[static_cast<std::size_t>(layer)];
}

WorkCounts& WorkCounts::operator+=(const WorkCounts& o) {
  splits += o.splits;
  csp_nodes += o.csp_nodes;
  homology_nodes += o.homology_nodes;
  search_nodes += o.search_nodes;
  ladder_facets += o.ladder_facets;
  image_hits += o.image_hits;
  image_misses += o.image_misses;
  mask_hits += o.mask_hits;
  mask_misses += o.mask_misses;
  fingerprint_leaves += o.fingerprint_leaves;
  store_lookups += o.store_lookups;
  store_hits += o.store_hits;
  bytes_written += o.bytes_written;
  return *this;
}

WorkCounts counts_of(const PipelineReport& report) {
  WorkCounts c;
  for (const EngineReport& e : report.engines) {
    if (e.name == "characterize") c.splits += parse_splits(e.detail);
    if (e.name == "post-split-connectivity-csp" || e.name == "two-process-csp") {
      c.csp_nodes += e.nodes_explored;
    }
    if (e.name == "post-split-homology") c.homology_nodes += e.nodes_explored;
    if (e.name == "chromatic-probe" || e.name == "tp-agnostic-probe") {
      c.search_nodes += e.nodes_explored;
      for (std::uint64_t f : e.level_facets) c.ladder_facets += f;
    }
    c.image_hits += e.image_cache_hits;
    c.image_misses += e.image_cache_misses;
    c.mask_hits += e.edge_mask_hits;
    c.mask_misses += e.edge_mask_misses;
  }
  return c;
}

Span::Span(Tracer& tracer, Layer layer)
    : tracer_(tracer), layer_(layer), parent_(tracer.top), start_(Clock::now()) {
  tracer_.top = this;
}

Span::~Span() {
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start_).count();
  tracer_.self_ms[static_cast<std::size_t>(layer_)] += ms - child_ms_;
  if (parent_ != nullptr) parent_->child_ms_ += ms;
  tracer_.top = parent_;
}

Decision plain_decide(const Task& task, const SolvabilityOptions& options) {
  const Clock::time_point start = Clock::now();
  auto result = std::make_shared<PipelineResult>(run_pipeline(task, options));
  Decision out;
  out.elapsed_ms = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  out.report = std::move(result->report);
  out.has_witness = result->has_chromatic_witness;
  out.witness_domain = std::move(result->witness_domain);
  out.witness = std::move(result->witness);
  out.keep_alive = std::move(result);
  return out;
}

Decision traced_decide(const Task& task, const SolvabilityOptions& options,
                       Tracer& tracer) {
  const Clock::time_point start = Clock::now();
  Decision out;
  const auto stop_clock = [&] {
    out.elapsed_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  };
  PipelineReport& report = out.report;
  report.task_name = task.name;
  report.num_processes = task.num_processes;
  report.input_facets = facet_count(task.input);
  report.output_facets = facet_count(task.output);
  report.options = options;
  EngineBudget budget;
  budget.max_radius = options.max_radius;
  budget.node_cap = options.node_cap;
  budget.threads = options.threads;
  const std::string schedule = task.num_processes == 2 ? "exact" : "ladder";

  // Verdict-store consult: exact hit, tier-A sibling replay, tier-B seed.
  const bool cache_enabled = !options.cache_dir.empty();
  TaskFingerprint fp;
  CanonicalLabeling labeling;
  std::string opt_digest;
  std::optional<io::VerdictStore> store;
  const io::VerdictRecordBudget record_budget{
      options.max_radius, options.node_cap, options.use_characterization,
      options.reuse_subdivisions, options.reuse_images};
  std::shared_ptr<ProbeSeed> seed;
  if (cache_enabled) {
    {
      Span span(tracer, Layer::kFingerprint);
      FingerprintResult fr = fingerprint_task(task);
      fp = fr.fingerprint;
      labeling = std::move(fr.labeling);
      tracer.work.fingerprint_leaves += fr.stats.leaves;
    }
    opt_digest = io::options_digest(options, schedule);
    store.emplace(options.cache_dir);
    report.cache = "miss";
    ++tracer.work.store_lookups;
    bool hit = false;
    {
      Span span(tracer, Layer::kLoadVerdict);
      hit = store->load_verdict(fp, opt_digest, &report);
    }
    if (hit) {
      report.task_name = task.name;
      report.num_processes = task.num_processes;
      report.input_facets = facet_count(task.input);
      report.output_facets = facet_count(task.output);
      report.cache = "hit";
      report.cache_hits = 1;
      ++tracer.work.store_hits;
      stop_clock();
      return out;
    }
    report.cache_misses = 1;
    std::vector<io::SiblingVerdict> siblings;
    {
      Span span(tracer, Layer::kScanSiblings);
      siblings = store->scan_siblings(fp);
    }
    for (const io::SiblingVerdict& sibling : siblings) {
      if (sibling.opt_digest == opt_digest) continue;
      if (sibling.report.schedule != schedule) continue;
      const io::VerdictRecordBudget& b = sibling.budget;
      if (b.max_radius == record_budget.max_radius ||
          b.node_cap != record_budget.node_cap ||
          b.use_characterization != record_budget.use_characterization ||
          b.reuse_subdivisions != record_budget.reuse_subdivisions ||
          b.reuse_images != record_budget.reuse_images) {
        continue;
      }
      bool replay_safe =
          schedule == "exact" || sibling.report.verdict == Verdict::Unsolvable;
      if (!replay_safe && sibling.report.verdict == Verdict::Solvable) {
        for (const EngineReport& e : sibling.report.engines) {
          if (e.precedence == engine_precedence::kChromaticProbe &&
              e.status == EngineStatus::Conclusive && e.witness_radius >= 0 &&
              e.witness_radius <= options.max_radius) {
            replay_safe = true;
            break;
          }
        }
      }
      if (!replay_safe) continue;
      report.schedule = sibling.report.schedule;
      report.verdict = sibling.report.verdict;
      report.reason = sibling.report.reason;
      report.radius = sibling.report.radius;
      report.via_characterization = sibling.report.via_characterization;
      report.characterization_computed = sibling.report.characterization_computed;
      report.engines = sibling.report.engines;
      report.cache = "artifacts";
      {
        Span span(tracer, Layer::kStoreVerdict);
        store->store_verdict(fp, opt_digest, report, record_budget);
      }
      report.cache_store_bytes = store->bytes_written();
      tracer.work.bytes_written += store->bytes_written();
      stop_clock();
      return out;
    }
    if (schedule == "ladder") {
      auto s = std::make_shared<ProbeSeed>();
      Span span(tracer, Layer::kArtifactRead);
      std::string body;
      if (store->load_artifact(fp, "ladder.levels", &body)) {
        s->ladder_body = std::move(body);
      }
      body.clear();
      if (store->load_artifact(fp, "delta.images", &body)) {
        s->images_body = std::move(body);
      }
      if (!s->ladder_body.empty() || !s->images_body.empty()) {
        s->labeling = labeling;
        seed = std::move(s);
      }
    }
  }

  // Publication of a conclusive verdict and of the climbed ladder.
  const auto publish = [&](const ProbeRun* chromatic) {
    if (!cache_enabled) return;
    const bool conclusive = report.verdict != Verdict::Unknown;
    const bool climbed = chromatic != nullptr && chromatic->levels.size() >= 2;
    if (!conclusive && !climbed) return;
    if (conclusive) {
      Span span(tracer, Layer::kStoreVerdict);
      store->store_verdict(fp, opt_digest, report, record_budget);
    }
    if (climbed) {
      std::string body;
      {
        Span span(tracer, Layer::kArtifactWrite);
        body = io::serialize_ladder_levels(task, labeling, chromatic->levels);
      }
      std::size_t existing_depth = 0;
      {
        Span span(tracer, Layer::kArtifactRead);
        std::string existing;
        if (store->load_artifact(fp, "ladder.levels", &existing)) {
          existing_depth = io::ladder_levels_count(existing);
        }
      }
      if (io::ladder_levels_count(body) > existing_depth) {
        Span span(tracer, Layer::kArtifactWrite);
        store->store_artifact(fp, "ladder.levels", body);
      }
    }
    {
      Span span(tracer, Layer::kArtifactWrite);
      store->store_artifact(fp, "delta.images",
                            io::serialize_delta_images(task, labeling));
    }
    report.cache_store_bytes = store->bytes_written();
    tracer.work.bytes_written += store->bytes_written();
  };

  const CancellationToken token;
  if (task.num_processes == 2) {
    report.schedule = "exact";
    EngineReport r;
    {
      Span span(tracer, Layer::kConnectivityCsp);
      r = TwoProcessEngine(task).run(budget, token);
    }
    tracer.work.csp_nodes += r.nodes_explored;
    report.verdict = r.status == EngineStatus::Conclusive ? r.verdict : Verdict::Unknown;
    report.reason = r.status == EngineStatus::Conclusive ? r.reason : r.detail;
    report.engines.push_back(std::move(r));
    publish(nullptr);
    stop_clock();
    return out;
  }
  report.schedule = schedule;

  // The impossibility chain on a lane-private clone, as the ladder runs it.
  std::optional<Task> lane_task;
  {
    Span span(tracer, Layer::kCloneTask);
    lane_task.emplace(clone_task(task));
  }
  auto ch = std::make_shared<CharacterizationResult>();
  EngineReport characterize_report = CharacterizeEngine(*lane_task).skipped();
  {
    Span span(tracer, Layer::kCharacterize);
    {
      Span inner(tracer, Layer::kCanonicalize);
      ch->canonical = canonicalize(*lane_task);
    }
    {
      Span inner(tracer, Layer::kBettiNumbers);
      ch->output_components_before = component_count(ch->canonical.output);
      ch->output_betti_before = betti_numbers(ch->canonical.output);
    }
    {
      Span inner(tracer, Layer::kMakeLinkConnected);
      LinkConnectedResult lc = make_link_connected(ch->canonical);
      ch->link_connected = std::move(lc.task);
      ch->splits = std::move(lc.history);
    }
    {
      Span inner(tracer, Layer::kBettiNumbers);
      ch->output_components_after = component_count(ch->link_connected.output);
      ch->output_betti_after = betti_numbers(ch->link_connected.output);
    }
    characterize_report.status = EngineStatus::Completed;
    characterize_report.detail = ch->report(*lane_task->pool);
  }
  tracer.work.splits += ch->splits.size();
  const Task& tstar = ch->canonical;
  const Task& tp = ch->link_connected;

  EngineReport cor55;
  EngineReport cor56;
  EngineReport csp;
  EngineReport homology;
  {
    Span span(tracer, Layer::kCorollary55);
    cor55 = Corollary55Engine(tstar).run(budget, token);
  }
  {
    Span span(tracer, Layer::kCorollary56);
    cor56 = Corollary56Engine(tstar).run(budget, token);
  }
  {
    Span span(tracer, Layer::kConnectivityCsp);
    csp = PostSplitCspEngine(tp).run(budget, token);
  }
  tracer.work.csp_nodes += csp.nodes_explored;
  if (csp.status == EngineStatus::Conclusive) {
    homology = HomologyEngine(tp).skipped();
  } else {
    Span span(tracer, Layer::kHomology);
    homology = HomologyEngine(tp).run(budget, token);
  }
  tracer.work.homology_nodes += homology.nodes_explored;
  const bool impossible = cor55.status == EngineStatus::Conclusive ||
                          cor56.status == EngineStatus::Conclusive ||
                          csp.status == EngineStatus::Conclusive ||
                          homology.status == EngineStatus::Conclusive;

  std::optional<ProbeRun> chromatic;
  std::optional<ProbeRun> agnostic;
  if (!impossible) {
    chromatic = run_probe(task, ProbeKind::DirectChromatic, budget, seed.get(), tracer);
    if (chromatic->report.status != EngineStatus::Conclusive) {
      agnostic = run_probe(tp, ProbeKind::LinkConnectedAgnostic, budget, nullptr, tracer);
    }
  }

  report.engines.push_back(std::move(characterize_report));
  report.engines.push_back(std::move(cor55));
  report.engines.push_back(std::move(cor56));
  report.engines.push_back(std::move(csp));
  report.engines.push_back(std::move(homology));
  report.engines.push_back(chromatic ? chromatic->report
                                     : ProbeEngine(task, ProbeKind::DirectChromatic).skipped());
  report.engines.push_back(
      agnostic ? agnostic->report
               : ProbeEngine(tp, ProbeKind::LinkConnectedAgnostic).skipped());
  report.characterization_computed = true;

  const EngineReport* best = best_conclusive(report.engines);
  if (best == nullptr) {
    report.verdict = Verdict::Unknown;
    report.reason = unknown_reason(options, report.engines);
  } else {
    report.verdict = best->verdict;
    report.reason = best->reason;
    if (best->precedence == engine_precedence::kChromaticProbe) {
      report.radius = best->witness_radius;
      out.has_witness = true;
      out.witness = chromatic->witness;
      out.witness_domain = chromatic->witness_domain;
    } else if (best->precedence == engine_precedence::kAgnosticProbe) {
      report.radius = agnostic->found_radius;
      report.via_characterization = true;
    } else if (best->verdict == Verdict::Unsolvable) {
      report.via_characterization = true;
    }
  }
  if (chromatic && (chromatic->seeded_levels > 0 || chromatic->seeded_images > 0)) {
    report.cache = "artifacts";
    report.cache_seeded_levels = chromatic->seeded_levels;
  }
  publish(chromatic ? &*chromatic : nullptr);
  // run_pipeline frees the probes' levels and the lane clone before it
  // returns; the characterization outlives it in the result.
  {
    Span span(tracer, Layer::kLadder);
    chromatic.reset();
    agnostic.reset();
  }
  {
    Span span(tracer, Layer::kCloneTask);
    lane_task.reset();
  }
  out.keep_alive = std::move(ch);
  stop_clock();
  return out;
}

}  // namespace trichroma::perf
