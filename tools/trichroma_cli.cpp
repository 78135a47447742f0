// trichroma — command-line front end.
//
//   trichroma demo <name>           print a built-in task in the text format
//   trichroma check <file>          parse and validate a task description
//   trichroma decide <file>         run the full solvability pipeline
//   trichroma batch                 run the pipeline on the whole zoo
//   trichroma fingerprint <file>    canonical chromatic-isomorphism fingerprint
//   trichroma split <file>          canonicalize + split; print T' and report
//   trichroma dot <file> in|out     GraphViz rendering of a complex
//   trichroma run <file> [seed]     synthesize a protocol and execute it
//   trichroma cache stats|prune     inspect / evict the verdict store
//   trichroma trace-stats <file>    per-span aggregates of a Chrome trace
//   trichroma list                  list built-in demo tasks
//   trichroma version               print version / schema / build type
//
// The text format is documented in src/io/task_format.h; `demo` is the
// quickest way to get a template to edit. `decide`, `synth`, `run` and
// `split` refuse a task that fails validation (listing each violation as
// `check` does), with vertex-level monotonicity relaxed so that the T'
// `split` prints loads again.
//
// `decide --cache-dir DIR` (also honored by `batch`) consults and feeds a
// content-addressed verdict store keyed by the task's canonical fingerprint
// (io/store.h): a warm run replays the stored verdict instead of running
// the engines, and on a key miss the engines warm-start from a budget
// sibling's record or stored subdivision-ladder artifacts (reported as
// cache "artifacts"). `synth` never uses the store — the witness map is
// not part of a verdict record, so a hit would have nothing to synthesize
// from. `cache stats` and `cache prune --max-bytes N` (both take
// --cache-dir) inspect and shrink a store; pruning evicts whole task
// entries oldest-first, so a surviving verdict never loses its artifacts.
//
// `decide --trace out.json` records a Chrome trace-event timeline of the
// run (spans from map searches, pipeline engines and the topology
// substrate) — open it in chrome://tracing or https://ui.perfetto.dev.
// `batch --trace-dir DIR` does the same for a whole batch (plus one
// `batch/worker` span per thread and phase), writing
// DIR/trace.json plus the registry totals as DIR/metrics.json — the
// metrics file is republished rename-atomically every second during the
// run, so a killed batch still leaves a valid, near-current snapshot.
// `trace-stats` turns such a timeline back into numbers: per-span
// count/total/p50/p99 aggregates, the critical path of the slowest
// pipeline run, and per-thread batch-worker utilization.
//
// `decide --metrics FILE` / `batch --metrics FILE` export the metrics
// registry (counters, gauges, histograms) in Prometheus text exposition
// format; `batch --heartbeat-file F [--heartbeat-interval S]` publishes a
// rename-atomic JSON liveness snapshot (progress, RSS, registry) every S
// seconds (default 5) — `tail`/`jq` it to monitor an hour-long batch.

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/characterization.h"
#include "io/report.h"
#include "io/store.h"
#include "io/task_format.h"
#include <algorithm>

#include <memory>

#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_stats.h"
#include "protocols/pipeline.h"
#include "protocols/verify.h"
#include "solver/batch.h"
#include "solver/pipeline.h"
#include "tasks/fingerprint.h"
#include "tasks/zoo.h"

using namespace trichroma;

namespace {

std::map<std::string, Task (*)()> demo_tasks() {
  return {
      {"consensus", [] { return zoo::consensus(3); }},
      {"consensus2", [] { return zoo::consensus_2(); }},
      {"set-agreement", [] { return zoo::set_agreement_32(); }},
      {"majority-consensus", [] { return zoo::majority_consensus(); }},
      {"hourglass", [] { return zoo::hourglass(); }},
      {"pinwheel", [] { return zoo::pinwheel(); }},
      {"identity", [] { return zoo::identity_task(); }},
      {"renaming", [] { return zoo::renaming(5); }},
      {"approx-agreement", [] { return zoo::approximate_agreement(2); }},
      {"subdivision", [] { return zoo::subdivision_task(1); }},
      {"fan", [] { return zoo::fan_task(6); }},
      {"fig3", [] { return zoo::fig3_running_example(); }},
  };
}

int usage() {
  std::fprintf(stderr,
               "usage: trichroma [options] <command> [args]\n"
               "  demo <name>        print a built-in task (see 'list')\n"
               "  list               list built-in tasks\n"
               "  check <file>       parse + validate\n"
               "  decide <file>      solvability verdict (Theorem 5.1)\n"
               "  batch              decide every zoo task concurrently\n"
               "  fingerprint <file> print the task's canonical fingerprint\n"
               "  split <file>       canonicalize + split; print T'\n"
               "  synth <file>       print the synthesized protocol's decision table\n"
               "  dot <file> in|out  GraphViz for the input/output complex\n"
               "  run <file> [seed]  synthesize and execute a protocol\n"
               "  cache stats        verdict-store size by kind (needs --cache-dir)\n"
               "  cache prune        evict oldest store entries down to --max-bytes\n"
               "  trace-stats <file> aggregate a Chrome trace: per-span count/total/\n"
               "                     p50/p99, critical path, worker utilization\n"
               "  version            print version, report schema and build type\n"
               "options:\n"
               "  --max-radius N     probe decision maps up to Ch^N (default: 2)\n"
               "  --node-cap N       search-node budget per probe (default: 20000000)\n"
               "  --jobs N           (batch) concurrent whole-task pipelines\n"
               "                     (default: 1; 0 = hardware concurrency)\n"
               "  --tasks a,b,...    (batch) restrict to these catalog tasks\n"
               "  --cache-dir DIR    (decide/batch/cache) content-addressed verdict\n"
               "                     store: replay stored verdicts for tasks already\n"
               "                     decided, or warm-start the engines from a budget\n"
               "                     sibling's subdivision artifacts (keyed by\n"
               "                     canonical fingerprint + budget; synth ignores\n"
               "                     it — witnesses are not stored)\n"
               "  --max-bytes N      (cache prune) target store size in bytes\n"
               "  --report FILE      (decide/synth) write the JSON pipeline report\n"
               "  --report-dir DIR   (batch) write one JSON report per task\n"
               "                     (timings redacted: files are byte-identical\n"
               "                     for every --jobs value)\n"
               "  --trace FILE       (decide/synth) write a Chrome trace-event\n"
               "                     timeline (chrome://tracing, Perfetto)\n"
               "  --trace-dir DIR    (batch) write DIR/trace.json + DIR/metrics.json\n"
               "                     (metrics republished atomically every second)\n"
               "  --metrics FILE     (decide/batch) write the metrics registry in\n"
               "                     Prometheus text exposition format\n"
               "  --heartbeat-file F (batch) publish a rename-atomic JSON liveness\n"
               "                     snapshot (progress, RSS, metrics) during the run\n"
               "  --heartbeat-interval S\n"
               "                     (batch) heartbeat period in seconds (default 5)\n");
  return 2;
}

struct CliOptions {
  SolvabilityOptions solve;
  int jobs = 1;                    // batch: concurrent task pipelines
  std::vector<std::string> tasks;  // batch: catalog subset
  std::string report_path;         // decide/synth
  std::string report_dir;          // batch
  std::string trace_path;          // decide/synth
  std::string trace_dir;           // batch
  std::string metrics_path;        // decide/batch: Prometheus export
  std::string heartbeat_file;      // batch
  double heartbeat_interval_s = 5.0;
  long long max_bytes = -1;        // cache prune: -1 = not given
};

/// RAII trace session around one CLI command: collection starts at
/// construction and the timeline is written when the command scope closes
/// (after all instrumented work quiesced). Inactive when `path` is empty.
class TraceSession {
 public:
  explicit TraceSession(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) obs::trace_start();
  }
  ~TraceSession() {
    if (path_.empty()) return;
    obs::trace_stop();
    try {
      obs::trace_write(path_);
      std::printf("trace:   %s", path_.c_str());
      if (const std::uint64_t dropped = obs::trace_dropped()) {
        std::printf("  (%llu events dropped; buffers were full)",
                    static_cast<unsigned long long>(dropped));
      }
      std::printf("\n");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
    }
  }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  std::string path_;
};

Task load(const char* path) { return io::parse_task(io::read_file(path)); }

void maybe_write_report(const PipelineReport& report, const CliOptions& cli) {
  if (cli.report_path.empty()) return;
  io::write_text_file(cli.report_path, io::to_json(report));
  std::printf("report:  %s\n", cli.report_path.c_str());
}

// Prometheus export of the global registry (counters, gauges, histograms),
// written rename-atomically so a scraper never reads a torn file.
void maybe_write_metrics(const CliOptions& cli) {
  if (cli.metrics_path.empty()) return;
  obs::atomic_write_file(cli.metrics_path,
                         obs::MetricsRegistry::global().to_prometheus());
  std::printf("metrics: %s\n", cli.metrics_path.c_str());
}

int cmd_check(const Task& task) {
  const auto errors = task.validate();
  std::printf("%s", task.summary().c_str());
  if (errors.empty()) {
    std::printf("OK: valid carrier map\n");
    return 0;
  }
  for (const auto& e : errors) std::printf("ERROR: %s\n", e.c_str());
  return 1;
}

// Prints the violations that make `task` unfit to decide; true if any.
// Relaxed as CarrierMap::validate describes: a split task T' breaks
// vertex-level monotonicity by construction.
bool reject_invalid(const Task& task) {
  const auto errors = task.validate(/*relax_vertex_monotonicity=*/true);
  for (const auto& e : errors) std::printf("ERROR: %s\n", e.c_str());
  return !errors.empty();
}

int cmd_version() {
#if defined(TRICHROMA_TSAN_BUILD)
  const char* build_type = "TSan";
#elif !defined(NDEBUG)
  const char* build_type = "assert";
#else
  const char* build_type = "Release";
#endif
#ifndef TRICHROMA_VERSION
#define TRICHROMA_VERSION "unknown"
#endif
  std::printf("trichroma %s\n", TRICHROMA_VERSION);
  std::printf("report schema: %s\n", io::report_schema());
  std::printf("build type: %s\n", build_type);
  return 0;
}

int cmd_decide(const Task& task, const CliOptions& cli) {
  TraceSession trace(cli.trace_path);
  const PipelineResult r = run_pipeline(task, cli.solve);
  std::printf("%s", task.summary().c_str());
  std::printf("verdict: %s\n", to_string(r.report.verdict));
  std::printf("reason:  %s\n", r.report.reason.c_str());
  if (!cli.solve.cache_dir.empty()) {
    std::printf("cache:   %s\n", r.report.cache.c_str());
  }
  maybe_write_report(r.report, cli);
  maybe_write_metrics(cli);
  if (r.characterization != nullptr) {
    // The characterization runs on a clone of the task, so the report must
    // be rendered against its own pool.
    std::printf("\n%s",
                r.characterization->report(*r.characterization->canonical.pool)
                    .c_str());
  }
  return r.report.verdict == Verdict::Unknown ? 1 : 0;
}

int cmd_batch(const CliOptions& cli) {
  if (!cli.report_dir.empty()) {
    std::filesystem::create_directories(cli.report_dir);
  }
  if (!cli.trace_dir.empty()) {
    std::filesystem::create_directories(cli.trace_dir);
  }
  TraceSession trace(cli.trace_dir.empty() ? std::string()
                                           : cli.trace_dir + "/trace.json");
  // The trace-dir metrics snapshot is republished rename-atomically every
  // second during the run (same writer as the heartbeat), not only at the
  // end — a killed batch leaves a valid, near-current metrics.json.
  std::unique_ptr<obs::PeriodicSnapshotWriter> metrics_flush;
  if (!cli.trace_dir.empty()) {
    metrics_flush = std::make_unique<obs::PeriodicSnapshotWriter>(
        cli.trace_dir + "/metrics.json", 1.0,
        [] { return obs::MetricsRegistry::global().to_json(); });
  }
  BatchOptions batch;
  batch.solve = cli.solve;
  batch.jobs = cli.jobs;
  batch.only = cli.tasks;
  batch.heartbeat_file = cli.heartbeat_file;
  batch.heartbeat_interval_s = cli.heartbeat_interval_s;
  const BatchResult result = run_batch(batch);
  if (metrics_flush != nullptr) {
    metrics_flush->stop();  // final flush with the end-of-run totals
    metrics_flush.reset();
    std::printf("metrics: %s/metrics.json\n", cli.trace_dir.c_str());
  }
  maybe_write_metrics(cli);

  std::printf("batch: %zu tasks, %d jobs, %.1f ms\n", result.tasks.size(),
              resolve_batch_jobs(cli.jobs), result.wall_ms);
  if (!cli.solve.cache_dir.empty()) {
    // The "N hit(s), M miss(es)" prefix is a substring contract (CI greps
    // it); the warm-start count is strictly appended.
    std::printf("cache: %d hit(s), %d miss(es), %d warm-start(s)\n",
                result.cache_hits, result.cache_misses,
                result.cache_artifacts);
  }
  std::printf("\n");
  std::printf("%-24s %-12s %7s %6s %9s  %s\n", "task", "verdict", "radius",
              "viaT'", "ms", "reason");
  for (const BatchTaskResult& t : result.tasks) {
    const PipelineReport& r = t.report;
    std::printf("%-24s %-12s %7d %6s %9.1f  %.60s\n", t.name.c_str(),
                to_string(r.verdict), r.radius,
                r.via_characterization ? "yes" : "no", r.total_wall_ms,
                r.reason.c_str());
    if (!cli.report_dir.empty()) {
      // Redacted timings: the one schedule-dependent quantity is zeroed, so
      // these files are byte-identical for every --jobs value.
      io::ReportJsonOptions json_options;
      json_options.redact_timings = true;
      io::write_text_file(cli.report_dir + "/" + t.name + ".json",
                          io::to_json(r, json_options));
    }
  }
  if (!cli.report_dir.empty()) {
    std::printf("\nreports written to %s/\n", cli.report_dir.c_str());
  }
  return result.unknown == 0 ? 0 : 1;
}

int cmd_cache(const char* action, const CliOptions& cli) {
  if (cli.solve.cache_dir.empty()) {
    std::fprintf(stderr, "error: 'cache %s' needs --cache-dir\n", action);
    return 2;
  }
  const io::VerdictStore store(cli.solve.cache_dir);
  if (std::strcmp(action, "stats") == 0) {
    const io::VerdictStore::Stats s = store.stats();
    std::printf("store:           %s\n", cli.solve.cache_dir.c_str());
    std::printf("entries:         %zu\n", s.entries);
    std::printf("verdict records: %zu (%llu bytes)\n", s.verdict_records,
                static_cast<unsigned long long>(s.verdict_bytes));
    std::printf("artifact files:  %zu (%llu bytes)\n", s.artifact_files,
                static_cast<unsigned long long>(s.artifact_bytes));
    std::printf("other files:     %zu (%llu bytes)\n", s.other_files,
                static_cast<unsigned long long>(s.other_bytes));
    std::printf("total bytes:     %llu\n",
                static_cast<unsigned long long>(s.total_bytes()));
    return 0;
  }
  if (std::strcmp(action, "prune") == 0) {
    if (cli.max_bytes < 0) {
      std::fprintf(stderr, "error: 'cache prune' needs --max-bytes\n");
      return 2;
    }
    const io::VerdictStore::PruneResult r =
        store.prune(static_cast<std::uint64_t>(cli.max_bytes));
    std::printf("evicted:   %zu entries (%llu bytes)\n", r.evicted_entries,
                static_cast<unsigned long long>(r.evicted_bytes));
    std::printf("remaining: %llu bytes\n",
                static_cast<unsigned long long>(r.remaining_bytes));
    return 0;
  }
  std::fprintf(stderr, "unknown cache action '%s' (want stats|prune)\n",
               action);
  return 2;
}

int cmd_trace_stats(const char* path) {
  const obs::TraceStats stats = obs::analyze_trace(io::read_file(path));
  std::printf("%s", obs::format_trace_stats(stats).c_str());
  return 0;
}

int cmd_fingerprint(const Task& task) {
  const FingerprintResult r = fingerprint_task(task);
  std::printf("%s", task.summary().c_str());
  std::printf("fingerprint: %s\n", r.fingerprint.hex().c_str());
  std::printf("domain:      %s\n", kFingerprintDomain);
  std::printf("vertices:    %zu\n", r.stats.vertices);
  std::printf("refinement rounds: %zu\n", r.stats.refinement_rounds);
  std::printf("backtrack nodes:   %zu\n", r.stats.backtrack_nodes);
  std::printf("leaves:            %zu\n", r.stats.leaves);
  std::printf("automorphism gens: %zu\n", r.stats.automorphism_generators);
  std::printf("orbit prunes:      %zu\n", r.stats.orbit_prunes);
  return 0;
}

int cmd_split(const Task& task) {
  const CharacterizationResult c = characterize(task);
  std::printf("%s\n", c.report(*task.pool).c_str());
  std::printf("%s", io::serialize_task(c.link_connected).c_str());
  return 0;
}

int cmd_dot(const Task& task, const char* which) {
  const bool input = std::strcmp(which, "in") == 0;
  std::printf("%s", io::to_dot(*task.pool, input ? task.input : task.output,
                               task.name + (input ? "-input" : "-output"))
                        .c_str());
  return 0;
}

int cmd_synth(const Task& task, const CliOptions& cli) {
  // Direct chromatic synthesis: find a decision map and print it as the
  // wait-free protocol it encodes. The verdict store is bypassed: a store
  // hit replays the verdict without the witness map, which would turn a
  // solvable task into "nothing to synthesize".
  TraceSession trace(cli.trace_path);
  SolvabilityOptions solve = cli.solve;
  solve.cache_dir.clear();
  const PipelineResult r = run_pipeline(task, solve);
  maybe_write_report(r.report, cli);
  if (r.report.verdict != Verdict::Solvable || !r.has_chromatic_witness) {
    std::printf("verdict: %s — nothing to synthesize\nreason: %s\n",
                to_string(r.report.verdict), r.report.reason.c_str());
    return 1;
  }
  std::printf("protocol: run %d round(s) of iterated immediate snapshot,\n"
              "then decide by the table below (view -> output).\n\n",
              r.report.radius);
  VertexPool& pool = *task.pool;
  // Order rows by view vertex id for stable output.
  std::vector<std::pair<VertexId, VertexId>> rows(r.witness.entries().begin(),
                                                  r.witness.entries().end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return raw(a.first) < raw(b.first);
  });
  for (const auto& [view, decision] : rows) {
    std::printf("  %-48s -> %s\n", pool.name(view).c_str(),
                pool.name(decision).c_str());
  }
  const auto check =
      protocols::verify_decision_map(task, r.witness, r.report.radius);
  std::printf("\nmodel-checked against %zu IIS executions: %s\n",
              check.executions, check.ok ? "all valid" : check.first_failure.c_str());
  return check.ok ? 0 : 1;
}

int cmd_run(const Task& task, std::uint64_t seed) {
  const auto solver = protocols::build_end_to_end(task, 2);
  if (!solver.has_value()) {
    std::printf("no protocol found at radius <= 2 (task may be unsolvable; "
                "try 'decide')\n");
    return 1;
  }
  std::printf("protocol: %d IIS round(s) + Figure-7 chromatic agreement\n",
              solver->algorithm.rounds);
  const int top = task.input.dimension();
  int runs = 0, valid = 0;
  for (const Simplex& facet : task.input.simplices(top)) {
    std::vector<std::pair<int, VertexId>> inputs;
    for (VertexId v : facet) {
      inputs.emplace_back(task.pool->color(v), v);
    }
    const auto run = protocols::run_end_to_end(*solver, task, inputs, seed);
    ++runs;
    valid += run.valid ? 1 : 0;
    std::printf("facet %s: %s (%zu ops)\n",
                facet.to_string(*task.pool).c_str(),
                run.valid ? "valid" : "INVALID", run.total_operations);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (run.decisions.size() > i && run.decisions[i].has_value()) {
        std::printf("  P%d -> %s\n", inputs[i].first,
                    task.pool->name(*run.decisions[i]).c_str());
      }
    }
  }
  std::printf("%d/%d facets executed validly\n", valid, runs);
  return valid == runs ? 0 : 1;
}

bool parse_long(const char* text, long min, long max, long* out) {
  char* end = nullptr;
  errno = 0;
  const long n = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || n < min || n > max) {
    return false;
  }
  *out = n;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip global options first; everything else is positional.
  CliOptions cli;
  std::vector<char*> args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-radius") == 0) {
      if (i + 1 >= argc) return usage();
      long n = 0;
      if (!parse_long(argv[++i], 0, 32, &n)) {
        std::fprintf(stderr, "error: --max-radius expects an integer in 0..32, got '%s'\n",
                     argv[i]);
        return usage();
      }
      cli.solve.max_radius = static_cast<int>(n);
    } else if (std::strcmp(argv[i], "--node-cap") == 0) {
      if (i + 1 >= argc) return usage();
      long n = 0;
      if (!parse_long(argv[++i], 1, 2'000'000'000'000L, &n)) {
        std::fprintf(stderr, "error: --node-cap expects a positive integer, got '%s'\n",
                     argv[i]);
        return usage();
      }
      cli.solve.node_cap = static_cast<std::size_t>(n);
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      if (i + 1 >= argc) return usage();
      long n = 0;
      if (!parse_long(argv[++i], 0, 4096, &n)) {
        std::fprintf(stderr,
                     "error: --jobs expects a non-negative integer, got '%s'\n",
                     argv[i]);
        return usage();
      }
      cli.jobs = static_cast<int>(n);
    } else if (std::strcmp(argv[i], "--tasks") == 0) {
      if (i + 1 >= argc) return usage();
      const char* list = argv[++i];
      std::string name;
      for (const char* p = list;; ++p) {
        if (*p == ',' || *p == '\0') {
          if (!name.empty()) cli.tasks.push_back(name);
          name.clear();
          if (*p == '\0') break;
        } else {
          name += *p;
        }
      }
      if (cli.tasks.empty()) {
        std::fprintf(stderr, "error: --tasks expects a comma-separated list\n");
        return usage();
      }
    } else if (std::strcmp(argv[i], "--cache-dir") == 0) {
      if (i + 1 >= argc) return usage();
      cli.solve.cache_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--max-bytes") == 0) {
      if (i + 1 >= argc) return usage();
      long n = 0;
      if (!parse_long(argv[++i], 0, 2'000'000'000'000L, &n)) {
        std::fprintf(stderr,
                     "error: --max-bytes expects a non-negative integer, got '%s'\n",
                     argv[i]);
        return usage();
      }
      cli.max_bytes = n;
    } else if (std::strcmp(argv[i], "--report") == 0) {
      if (i + 1 >= argc) return usage();
      cli.report_path = argv[++i];
    } else if (std::strcmp(argv[i], "--report-dir") == 0) {
      if (i + 1 >= argc) return usage();
      cli.report_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) return usage();
      cli.trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-dir") == 0) {
      if (i + 1 >= argc) return usage();
      cli.trace_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      if (i + 1 >= argc) return usage();
      cli.metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--heartbeat-file") == 0) {
      if (i + 1 >= argc) return usage();
      cli.heartbeat_file = argv[++i];
    } else if (std::strcmp(argv[i], "--heartbeat-interval") == 0) {
      if (i + 1 >= argc) return usage();
      char* end = nullptr;
      const double s = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' || !(s > 0.0) || s > 86400.0) {
        std::fprintf(stderr,
                     "error: --heartbeat-interval expects seconds in "
                     "(0, 86400], got '%s'\n",
                     argv[i]);
        return usage();
      }
      cli.heartbeat_interval_s = s;
    } else {
      args.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(args.size());
  argv = args.data();
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "version") {
      return cmd_version();
    }
    if (command == "list") {
      for (const auto& [name, make] : demo_tasks()) {
        (void)make;
        std::printf("%s\n", name.c_str());
      }
      return 0;
    }
    if (command == "batch") {
      if (argc != 2) return usage();
      return cmd_batch(cli);
    }
    if (command == "demo") {
      if (argc != 3) return usage();
      const auto demos = demo_tasks();
      auto it = demos.find(argv[2]);
      if (it == demos.end()) {
        std::fprintf(stderr, "unknown demo '%s'; see 'trichroma list'\n", argv[2]);
        return 2;
      }
      std::printf("%s", io::serialize_task(it->second()).c_str());
      return 0;
    }
    if (command == "cache") {
      if (argc != 3) return usage();
      return cmd_cache(argv[2], cli);
    }
    if (command == "trace-stats") {
      if (argc != 3) return usage();
      return cmd_trace_stats(argv[2]);
    }
    if (argc < 3) return usage();
    const Task task = load(argv[2]);
    if (command == "check") return cmd_check(task);
    if (command == "fingerprint") return cmd_fingerprint(task);
    if (command == "dot") {
      if (argc != 4) return usage();
      return cmd_dot(task, argv[3]);
    }
    if (command != "synth" && command != "decide" && command != "split" &&
        command != "run") {
      return usage();
    }
    if (reject_invalid(task)) return 1;
    if (command == "synth") return cmd_synth(task, cli);
    if (command == "decide") return cmd_decide(task, cli);
    if (command == "split") return cmd_split(task);
    long seed = 1;
    if (argc > 3 && !parse_long(argv[3], 0, LONG_MAX, &seed)) {
      std::fprintf(stderr,
                   "error: run expects a non-negative integer seed, got '%s'\n",
                   argv[3]);
      return usage();
    }
    return cmd_run(task, static_cast<std::uint64_t>(seed));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
