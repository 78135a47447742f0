// trichroma_perf — the repository's end-to-end benchmark (perf/README.md).
//
//   trichroma_perf --workload W --seed N --seconds S --trace 0|1 [--commit C]
//   trichroma_perf --smoke
//
// One closed-loop caller decides one task at a time (threads = 1, schedule
// kLadder) for S seconds, in whole rounds over the workload's task list,
// and checks every outcome. --trace 0 prints the end-to-end metrics;
// --trace 1 alternates an untraced round with a traced one and prints the
// per-layer metrics. The last stdout line is one JSON object.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "io/report.h"
#include "protocols/verify.h"
#include "solver/map_search.h"
#include "tasks/fingerprint.h"
#include "tasks/zoo.h"
#include "traced_decide.h"

namespace trichroma::perf {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Linear interpolation between closest ranks (numpy's default).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string number(double x) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), x);
  return std::string(buf, res.ptr);
}

// --- workloads -------------------------------------------------------------

/// The oracle for one task: its known verdict and minimal radius, and for a
/// capped search the exact node count at which it stops.
struct Expect {
  Verdict verdict = Verdict::Unknown;
  int radius = -1;
  std::size_t nodes = 0;  ///< 0 = not checked
};

struct Job {
  std::string name;
  Task proto;  ///< never decided itself: every op decides a fresh clone
  SolvabilityOptions options;
  std::optional<Expect> expect;
  std::string tier;         ///< store_replay: expected cache tier
  std::string cold_report;  ///< store_replay: cold report, "cache" lines dropped
};

struct Pass {
  std::string name;
  std::vector<Job> jobs;
};

struct Workload {
  std::vector<Pass> passes;  ///< one round runs every pass in order
  fs::path store_dir;        ///< store_replay: the live store ("" = none)
  std::map<std::string, std::string> snapshot;  ///< its files as setup left them
  std::string budget;        ///< printed budget line
};

SolvabilityOptions budget(int max_radius, std::size_t node_cap = 20'000'000) {
  SolvabilityOptions o;
  o.max_radius = max_radius;
  o.node_cap = node_cap;
  o.threads = 1;
  o.schedule = PipelineSchedule::kLadder;
  return o;
}

// The catalog's known answers: the paper's verdicts, with the minimal radius
// of a chromatic (or, via T', color-agnostic) decision map.
const std::map<std::string, Expect>& catalog_answers() {
  static const std::map<std::string, Expect> answers = {
      {"identity", {Verdict::Solvable, 0}},
      {"renaming5", {Verdict::Solvable, 0}},
      {"subdivision0", {Verdict::Solvable, 0}},
      {"subdivision1", {Verdict::Solvable, 1}},
      {"approx_agreement", {Verdict::Solvable, 1}},
      {"fan6", {Verdict::Solvable, 0}},
      {"fig3", {Verdict::Solvable, 0}},
      {"loop_filled", {Verdict::Solvable, 1}},
      {"consensus3", {Verdict::Unsolvable}},
      {"set_agreement_32", {Verdict::Unsolvable}},
      {"majority_consensus", {Verdict::Unsolvable}},
      {"hourglass", {Verdict::Unsolvable}},
      {"pinwheel", {Verdict::Unsolvable}},
      {"loop_hollow", {Verdict::Unsolvable}},
      {"loop_torus", {Verdict::Unsolvable}},
      {"loop_rp2", {Verdict::Unsolvable}},
      {"twisted_hourglass", {Verdict::Unsolvable}},
      {"test_and_set3", {Verdict::Unsolvable}},
      {"wsb3", {Verdict::Solvable, 0}},
      {"consensus_2", {Verdict::Unsolvable}},
      {"approx_agreement_2", {Verdict::Solvable}},
  };
  return answers;
}

// deep_probe's capped task: approximate_agreement(5) at radius 3 builds Ch^3
// and stops on this node cap with exactly kApprox5Nodes nodes explored.
constexpr std::size_t kApprox5NodeCap = 20'000;
constexpr std::size_t kApprox5Nodes = 80'922;

// A chromatically isomorphic copy of `task` in a fresh pool: shuffled
// vertex ids, values and insertion orders.
Task relabel(const Task& task, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Task out;
  out.pool = std::make_shared<VertexPool>();
  out.name = task.name;
  out.num_processes = task.num_processes;
  std::vector<VertexId> verts = task.input.vertex_ids();
  for (VertexId v : task.output.vertex_ids()) verts.push_back(v);
  std::sort(verts.begin(), verts.end(),
            [](VertexId a, VertexId b) { return raw(a) < raw(b); });
  verts.erase(std::unique(verts.begin(), verts.end()), verts.end());
  std::shuffle(verts.begin(), verts.end(), rng);
  std::map<VertexId, VertexId> m;
  std::int64_t next = 1000 + static_cast<std::int64_t>(rng() % 100000);
  for (VertexId v : verts) m[v] = out.pool->vertex(task.pool->color(v), next++);
  const auto ms = [&m](const Simplex& s) {
    std::vector<VertexId> vs;
    for (VertexId v : s) vs.push_back(m.at(v));
    return Simplex(std::move(vs));
  };
  std::vector<Simplex> ifacets = task.input.facets();
  std::vector<Simplex> ofacets = task.output.facets();
  std::shuffle(ifacets.begin(), ifacets.end(), rng);
  std::shuffle(ofacets.begin(), ofacets.end(), rng);
  for (const Simplex& f : ifacets) out.input.add(ms(f));
  for (const Simplex& f : ofacets) out.output.add(ms(f));
  std::vector<Simplex> domain = task.delta.domain();
  std::shuffle(domain.begin(), domain.end(), rng);
  for (const Simplex& sigma : domain) {
    std::vector<Simplex> images;
    for (const Simplex& tau : task.delta.facet_images(sigma)) images.push_back(ms(tau));
    std::shuffle(images.begin(), images.end(), rng);
    for (const Simplex& tau : images) out.delta.add(ms(sigma), tau);
  }
  return out;
}

// The report's declared filter for warm-vs-cold comparisons: every line
// carrying `"cache":` goes (io/report.h).
std::string without_cache_lines(const PipelineReport& report) {
  io::ReportJsonOptions json;
  json.redact_timings = true;
  const std::string text = io::to_json(report, json);
  std::string out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + start, end - start);
    if (line.find("\"cache\":") == std::string_view::npos) {
      out.append(line);
      out += '\n';
    }
    start = end + 1;
  }
  return out;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const fs::path& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  if (!out) throw std::runtime_error("cannot restore " + path.string());
}

/// Every regular file under `dir`, keyed by its path relative to `dir`.
std::map<std::string, std::string> snapshot_of(const fs::path& dir) {
  std::map<std::string, std::string> files;
  const std::size_t prefix = dir.string().size() + 1;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) files[e.path().string().substr(prefix)] = read_file(e.path());
  }
  return files;
}

/// Brings the store back to `snapshot`: deletes it and writes its files back.
void restore(const fs::path& dir, const std::map<std::string, std::string>& snapshot) {
  fs::remove_all(dir);
  for (const auto& [rel, contents] : snapshot) {
    fs::create_directories((dir / rel).parent_path());
    write_file(dir / rel, contents);
  }
}

Workload catalog_cold() {
  Workload w{{{"decide", {}}}, {}, {}, "max_radius 2, default node cap"};
  for (const zoo::CatalogEntry& e : zoo::catalog()) {
    w.passes[0].jobs.push_back(
        {e.name, e.build(), budget(2), catalog_answers().at(e.name), "", ""});
  }
  return w;
}

// 600 draws keep the seed-to-seed spread of the percentiles small (with 200
// it reached 17% for p90) while a round still fits a run about twice; seeds
// map to disjoint stretches of the stream (it advances its seed by one per
// draw).
constexpr int kRandomTasks = 600;
constexpr std::uint64_t kSeedStride = 1'000'003;
// About one draw in 200 needs tens of millions of search nodes; at the
// default cap it would take ~13 s and end Unknown. This cap ends it in
// ~0.1 s, still Unknown, and leaves every other draw's search untouched.
constexpr std::size_t kRandomNodeCap = 100'000;

Workload random_lap(std::uint64_t seed) {
  Workload w{{{"decide", {}}}, {}, {},
             "max_radius 2, node cap " + std::to_string(kRandomNodeCap) +
                 "; pinwheel family, 3 input facets"};
  zoo::RandomTaskParams params;
  params.num_input_facets = 3;
  params.output_values_per_color = 3;
  params.restricted_faces = true;
  params.seed = seed * kSeedStride;
  zoo::RandomTaskStream stream(params);
  for (int i = 0; i < kRandomTasks; ++i) {
    Task t = stream.next();
    std::string name = t.name;
    w.passes[0].jobs.push_back(
        {std::move(name), std::move(t), budget(2, kRandomNodeCap), {}, "", ""});
  }
  return w;
}

Workload deep_probe() {
  Workload w{{{"decide", {}}}, {}, {},
             "max_radius 2; approximate_agreement(5) at max_radius 3, node cap " +
                 std::to_string(kApprox5NodeCap)};
  auto& jobs = w.passes[0].jobs;
  // Two copies of each radius-2 task per round keep the median inside one
  // task's samples instead of on the boundary between two tasks.
  for (int copy = 0; copy < 2; ++copy) {
    jobs.push_back({"approx_agreement_3", zoo::approximate_agreement(3), budget(2),
                    Expect{Verdict::Solvable, 2}, "", ""});
    jobs.push_back({"approx_agreement_4", zoo::approximate_agreement(4), budget(2),
                    Expect{Verdict::Solvable, 2}, "", ""});
    jobs.push_back({"subdivision_2", zoo::subdivision_task(2), budget(2),
                    Expect{Verdict::Solvable, 2}, "", ""});
  }
  jobs.push_back({"approx_agreement_5", zoo::approximate_agreement(5),
                  budget(3, kApprox5NodeCap),
                  Expect{Verdict::Unknown, -1, kApprox5Nodes}, "", ""});
  return w;
}

// A round reads every twin kReadPasses times, then deepens it once, as a
// store serving mostly repeats would. Exact hits are then 5/6 of the ops, so
// the round's median op lies well inside the hits of small tasks, away from
// the write pass's sibling replays: those write store records, and their
// time follows the file system's state from run to run.
constexpr int kReadPasses = 10;

Workload store_replay(std::uint64_t seed, const fs::path& work_dir) {
  Workload w{{{"read", {}}, {"write", {}}}, work_dir / "store", {},
             "read pass x" + std::to_string(kReadPasses) +
                 " at max_radius 1, write pass at max_radius 2, default node cap"};
  fs::remove_all(w.store_dir);
  fs::create_directories(w.store_dir);
  std::vector<Task> twins;
  std::uint64_t twin_seed = seed * 1000;
  for (const zoo::CatalogEntry& e : zoo::catalog()) twins.push_back(relabel(e.build(), ++twin_seed));
  for (int span : {3, 4}) {
    Task t = zoo::approximate_agreement(span);
    t.name = "approx_agreement_" + std::to_string(span);
    twins.push_back(relabel(t, ++twin_seed));
  }
  // Within a pass, a twin isomorphic to an earlier one (identity and
  // subdivision_task(0) are) hits the record that one just published.
  std::set<std::string> written;
  for (Task& twin : twins) {
    const bool repeat = !written.insert(fingerprint_of(twin).hex()).second;
    SolvabilityOptions read = budget(1);
    read.cache_dir = w.store_dir.string();
    SolvabilityOptions write = budget(2);
    write.cache_dir = w.store_dir.string();
    // Fill the store at radius 1; the fill's report is the read pass's cold
    // reference. The write pass's reference is a store-less radius-2 run.
    const PipelineReport fill = run_pipeline(clone_task(twin), read).report;
    const PipelineReport cold2 = run_pipeline(clone_task(twin), budget(2)).report;
    const bool stored = fill.verdict != Verdict::Unknown;
    w.passes[0].jobs.push_back({twin.name, clone_task(twin), read, {},
                                stored ? "hit" : "artifacts", without_cache_lines(fill)});
    w.passes[1].jobs.push_back({twin.name, std::move(twin), write, {},
                                repeat ? "hit" : "artifacts", without_cache_lines(cold2)});
  }
  // The copies share the protos' pools, which no op decides.
  const Pass read_pass = w.passes.front();
  w.passes.insert(w.passes.begin() + 1, kReadPasses - 1, read_pass);
  w.snapshot = snapshot_of(w.store_dir);
  return w;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const fs::path& work_dir) {
  if (name == "catalog_cold") return catalog_cold();
  if (name == "random_lap") return random_lap(seed);
  if (name == "deep_probe") return deep_probe();
  if (name == "store_replay") return store_replay(seed, work_dir);
  throw std::invalid_argument("unknown workload: " + name);
}

const std::vector<std::string> kWorkloads = {"catalog_cold", "random_lap", "deep_probe",
                                             "store_replay"};

// --- checking ---------------------------------------------------------------

/// What one op of a job must reproduce in every round and on both paths.
struct Outcome {
  Verdict verdict = Verdict::Unknown;
  int radius = -1;
  WorkCounts counts;
  std::string report;  ///< report without "cache" lines

  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const PipelineReport& r) {
  return {r.verdict, r.radius, counts_of(r), without_cache_lines(r)};
}

struct JobState {
  std::optional<Outcome> first;  ///< the first untraced op's outcome
  Outcome last;                  ///< the latest untraced op's outcome
  std::vector<double> ms;        ///< untraced op times
  // The first untraced witness, verified after the timed loop; the first
  // traced one is verified when it appears.
  std::optional<Task> witness_task;
  std::optional<Decision> witness;
  bool traced_witness_checked = false;
};

std::size_t total_nodes(const PipelineReport& r) {
  std::size_t n = 0;
  for (const EngineReport& e : r.engines) n += e.nodes_explored;
  return n;
}

/// Checks one untraced op against the job's oracle and its first op.
/// Returns a failure description, or "" when the op is correct.
std::string check_op(const Job& job, JobState& state, const PipelineReport& r,
                     const Outcome& o) {
  if (job.expect) {
    if (r.verdict != job.expect->verdict) {
      return std::string("verdict ") + to_string(r.verdict) + ", expected " +
             to_string(job.expect->verdict);
    }
    if (job.expect->radius >= 0 && r.radius != job.expect->radius) {
      return "radius " + std::to_string(r.radius) + ", expected " +
             std::to_string(job.expect->radius);
    }
    if (job.expect->nodes != 0 && total_nodes(r) != job.expect->nodes) {
      return "nodes " + std::to_string(total_nodes(r)) + ", expected " +
             std::to_string(job.expect->nodes);
    }
  }
  if (!job.tier.empty() && r.cache != job.tier) {
    return "cache tier " + r.cache + ", expected " + job.tier;
  }
  if (!job.cold_report.empty() && o.report != job.cold_report) {
    return "report differs from the cold report";
  }
  if (!state.first) {
    state.first = o;
  } else if (!(*state.first == o)) {
    return "outcome differs from the job's first round";
  }
  return "";
}

std::string check_witness(const Task& task, const Decision& d) {
  if (!validate_decision_map(*task.pool, *d.witness_domain, task, d.witness, true)) {
    return "witness fails validate_decision_map";
  }
  const protocols::VerificationResult v =
      protocols::verify_decision_map(task, d.witness, d.report.radius);
  if (!v.ok) return "witness fails verify_decision_map: " + v.first_failure;
  return "";
}

// --- running ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::vector<Metric> metrics;  ///< goes into the JSON line
  std::vector<Metric> extra;    ///< printed only
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

// --- host-speed reference ---------------------------------------------------

// The benchmark host shares its cores and memory with other tenants' work,
// whose load moves every timing here by 20-30% over minutes. So the timed
// loop also runs a fixed reference computation between ops: hashing,
// allocation and sorting like the library's inner loops, but frozen here, so
// that no change to the library moves it. Every end-to-end time is reported
// scaled to the reference's time on a quiet development host:
//   reported = measured * kReferenceMs / (the run's mean reference time).
// The measured figures are printed beside them (`.raw`).
constexpr double kReferenceMs = 8.0;
// After each op, the reference runs until it has taken this share of the
// ops' time.
constexpr double kReferenceShare = 0.05;

/// Runs the reference computation once; returns its wall time in ms.
double reference_ms() {
  const Clock::time_point start = Clock::now();
  std::uint64_t x = 88172645463325252ULL;  // xorshift64
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
  for (std::uint32_t i = 0; i < 20'000; ++i) buckets[next() % 50'000].push_back(i);
  std::uint64_t found = 0;
  for (int i = 0; i < 40'000; ++i) {
    const auto it = buckets.find(next() % 50'000);
    if (it != buckets.end()) found += it->second.size();
  }
  std::vector<std::uint64_t> keys(60'000);
  for (std::uint64_t& k : keys) k = next();
  std::sort(keys.begin(), keys.end());
  // Uses the results, so the work cannot be optimized away.
  if (found == 0 || !std::is_sorted(keys.begin(), keys.end())) {
    throw std::logic_error("reference computation went wrong");
  }
  return seconds_since(start) * 1000.0;
}

// Peak resident set of this process image. VmHWM, unlike ru_maxrss, starts
// afresh at exec, so it excludes the launching script's memory.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// The timed loop repeats the setup from scratch, as a spare workload, while
// setups have taken less than this share of the decides' time. A setup lasts
// 7-350 ms; spread over the run, the repeats meet the host's fast and slow
// moments alike, and their median holds steady.
constexpr double kSetupShare = 0.1;

class Runner {
 public:
  Runner(const std::string& workload, std::uint64_t seed, double seconds, bool trace,
         fs::path work_dir)
      : name_(workload), seed_(seed), seconds_(seconds), trace_(trace),
        work_dir_(std::move(work_dir)) {}

  Result run();

 private:
  /// Builds the workload into `w` and runs its warm-up; returns seconds.
  double timed_setup(Workload& w) const;
  void setup();
  void untraced_round();
  void traced_round();
  void fail(const std::string& what, const std::string& why);
  Result end_to_end_metrics() const;
  Result layer_metrics() const;

  std::string name_;
  std::uint64_t seed_;
  double seconds_;
  bool trace_;
  fs::path work_dir_;

  Workload w_;
  std::vector<std::vector<JobState>> state_;  ///< [pass][job]
  std::vector<std::vector<double>> round_ms_;  ///< untraced op times, per round
  std::vector<double> reference_ms_;           ///< --trace 0: reference times
  double reference_total_ms_ = 0.0;
  // Setup times; the first is the one whose workload runs, and the only one
  // that pays for the library's lazily built statics (Ch templates).
  std::vector<double> setup_s_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  int rounds_ = 0;
  // --trace 1: per-round sums over the untraced and the traced round.
  double untraced_ms_ = 0.0;
  double traced_ms_ = 0.0;
  Tracer tracer_;
  std::optional<WorkCounts> round_counts_;  ///< traced work of the first round
};

void Runner::fail(const std::string& what, const std::string& why) {
  ++failed_;
  if (failed_ <= 10) std::printf("FAILED %s: %s\n", what.c_str(), why.c_str());
}

double Runner::timed_setup(Workload& w) const {
  const Clock::time_point start = Clock::now();
  w = make_workload(name_, seed_, work_dir_);
  // Warm-up: one decide per pass, not counted.
  for (const Pass& pass : w.passes) {
    plain_decide(clone_task(pass.jobs.front().proto), pass.jobs.front().options);
  }
  return seconds_since(start);
}

void Runner::setup() {
  setup_s_.push_back(timed_setup(w_));
  state_.assign(w_.passes.size(), {});
  for (std::size_t p = 0; p < w_.passes.size(); ++p) {
    state_[p].resize(w_.passes[p].jobs.size());
  }
}

void Runner::untraced_round() {
  if (!w_.store_dir.empty()) restore(w_.store_dir, w_.snapshot);
  std::vector<double>& round_ms = round_ms_.emplace_back();
  for (std::size_t p = 0; p < w_.passes.size(); ++p) {
    for (std::size_t j = 0; j < w_.passes[p].jobs.size(); ++j) {
      const Job& job = w_.passes[p].jobs[j];
      JobState& st = state_[p][j];
      Task task = clone_task(job.proto);
      Decision d = plain_decide(task, job.options);
      ++attempted_;
      st.ms.push_back(d.elapsed_ms);
      untraced_ms_ += d.elapsed_ms;
      round_ms.push_back(d.elapsed_ms);
      st.last = outcome_of(d.report);
      const std::string why = check_op(job, st, d.report, st.last);
      if (!why.empty()) fail(w_.passes[p].name + "/" + job.name, why);
      if (d.has_witness && !st.witness) {
        st.witness_task = std::move(task);
        st.witness = std::move(d);
      }
      // The reference runs between ops, so it meets the host as the ops do.
      while (!trace_ && reference_total_ms_ < kReferenceShare * untraced_ms_) {
        reference_ms_.push_back(reference_ms());
        reference_total_ms_ += reference_ms_.back();
      }
    }
  }
}

void Runner::traced_round() {
  if (!w_.store_dir.empty()) restore(w_.store_dir, w_.snapshot);
  Tracer round;
  WorkCounts untraced_counts;
  WorkCounts traced_report_counts;
  for (std::size_t p = 0; p < w_.passes.size(); ++p) {
    for (std::size_t j = 0; j < w_.passes[p].jobs.size(); ++j) {
      const Job& job = w_.passes[p].jobs[j];
      JobState& st = state_[p][j];
      Task task = clone_task(job.proto);
      Decision d = traced_decide(task, job.options, round);
      ++attempted_;
      traced_ms_ += d.elapsed_ms;
      const std::string what = w_.passes[p].name + "/" + job.name + " (traced)";
      const Outcome o = outcome_of(d.report);
      untraced_counts += st.last.counts;
      traced_report_counts += o.counts;
      if (!(o == st.last)) {
        fail(what, "report differs from the untraced decide's");
      } else if (!job.tier.empty() && d.report.cache != job.tier) {
        fail(what, "cache tier " + d.report.cache + ", expected " + job.tier);
      } else if (d.has_witness && !st.traced_witness_checked) {
        st.traced_witness_checked = true;
        const std::string why = check_witness(task, d);
        if (!why.empty()) fail(what, why);
      }
    }
  }
  // Exact counts: the same every round, and the same work the reports of
  // both paths record. (Store hits replay recorded counts without doing the
  // work, so there only the reports are compared.)
  if (!round_counts_) {
    round_counts_ = round.work;
  } else if (!(*round_counts_ == round.work)) {
    fail("traced round", "work counts differ from the first traced round");
  }
  if (!(untraced_counts == traced_report_counts)) {
    fail("traced round", "traced and untraced counts differ");
  }
  WorkCounts engine_work = round.work;
  engine_work.fingerprint_leaves = engine_work.store_lookups = engine_work.store_hits =
      engine_work.bytes_written = 0;
  if (w_.store_dir.empty() && !(engine_work == traced_report_counts)) {
    fail("traced round", "span counts differ from the reports' counts");
  }
  for (std::size_t i = 0; i < kLayerCount; ++i) tracer_.self_ms[i] += round.self_ms[i];
  tracer_.work += round.work;
}

Result Runner::run() {
  setup();
  const Clock::time_point start = Clock::now();
  double setup_total_s = setup_s_.front();
  do {
    untraced_round();
    if (trace_) traced_round();
    ++rounds_;
    if (!trace_ && setup_total_s * 1000.0 < kSetupShare * untraced_ms_) {
      Workload spare;
      setup_s_.push_back(timed_setup(spare));
      setup_total_s += setup_s_.back();
    }
  } while (seconds_since(start) < seconds_);

  // Witnesses are model-checked after the timed loop.
  for (std::size_t p = 0; p < w_.passes.size(); ++p) {
    for (std::size_t j = 0; j < w_.passes[p].jobs.size(); ++j) {
      JobState& st = state_[p][j];
      if (!st.witness) continue;
      const std::string why = check_witness(*st.witness_task, *st.witness);
      if (!why.empty()) fail(w_.passes[p].name + "/" + w_.passes[p].jobs[j].name, why);
    }
  }

  std::printf("workload %s: %s; %d rounds\n", name_.c_str(), w_.budget.c_str(), rounds_);
  std::printf("%-8s %-26s %-11s %6s %12s %10s\n", "pass", "task", "verdict", "radius",
              "nodes", "p50_ms");
  for (std::size_t p = 0; p < w_.passes.size(); ++p) {
    for (std::size_t j = 0; j < w_.passes[p].jobs.size(); ++j) {
      const JobState& st = state_[p][j];
      if (!st.first) continue;
      const WorkCounts& c = st.first->counts;
      std::printf("%-8s %-26s %-11s %6d %12llu %10.4f\n", w_.passes[p].name.c_str(),
                  w_.passes[p].jobs[j].name.c_str(), to_string(st.first->verdict),
                  st.first->radius,
                  static_cast<unsigned long long>(c.csp_nodes + c.homology_nodes +
                                                  c.search_nodes),
                  percentile(st.ms, 0.5));
    }
  }
  return trace_ ? layer_metrics() : end_to_end_metrics();
}

// Percentiles are taken per window of consecutive rounds holding at least
// kWindowDecides decides (so p90 keeps 10 samples beyond it), and the mean
// over windows is reported. A shared host runs slow for stretches of tens of
// seconds; the mean weighs such a stretch by its share of the run, where one
// percentile over the whole run (or a median over windows) jumps between
// the fast and the slow level from run to run.
constexpr std::size_t kWindowDecides = 100;

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

Result Runner::end_to_end_metrics() const {
  Result r;
  const std::size_t per_round = round_ms_.front().size();
  const std::size_t rounds_per_window = (kWindowDecides + per_round - 1) / per_round;
  const std::size_t windows = std::max<std::size_t>(1, round_ms_.size() / rounds_per_window);
  std::vector<double> p50s, p90s;
  for (std::size_t w = 0; w < windows; ++w) {
    // The last window takes the rounds left over.
    const std::size_t end = w + 1 == windows ? round_ms_.size() : (w + 1) * rounds_per_window;
    std::vector<double> window;
    for (std::size_t i = w * rounds_per_window; i < end; ++i) {
      window.insert(window.end(), round_ms_[i].begin(), round_ms_[i].end());
    }
    p50s.push_back(percentile(window, 0.5));
    p90s.push_back(percentile(window, 0.9));
  }

  std::vector<double> all;
  std::map<std::string, std::vector<double>> per_pass;  ///< by pass name
  for (std::size_t p = 0; p < state_.size(); ++p) {
    std::vector<double>& pass_ms = per_pass[w_.passes[p].name];
    for (const JobState& st : state_[p]) {
      all.insert(all.end(), st.ms.begin(), st.ms.end());
      pass_ms.insert(pass_ms.end(), st.ms.begin(), st.ms.end());
    }
  }
  // Decides over timed seconds: n / (n * mean op time).
  const double per_s = 1000.0 / mean(all);
  // How much slower than the quiet development host this run's host was.
  const double slowdown = mean(reference_ms_) / kReferenceMs;
  r.attempted = attempted_;
  r.failed = failed_;
  r.metrics = {
      {"decide_ms.p50", mean(p50s) / slowdown, "ms"},
      {"decide_ms.p90", mean(p90s) / slowdown, "ms"},
      {"decides_per_s", per_s * slowdown, "1/s"},
      {"setup_s", percentile(setup_s_, 0.5) / slowdown, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  r.extra = {
      {"decide_ms.p50.raw", mean(p50s), "ms"},
      {"decide_ms.p90.raw", mean(p90s), "ms"},
      {"decides_per_s.raw", per_s, "1/s"},
      {"setup_s.raw", percentile(setup_s_, 0.5), "s"},
      {"setup.runs", static_cast<double>(setup_s_.size()), "count"},
      {"host.reference_ms", mean(reference_ms_), "ms"},
      {"host.reference_runs", static_cast<double>(reference_ms_.size()), "count"},
      {"host.slowdown", slowdown, "ratio"},
      {"decide_ms.samples", static_cast<double>(all.size()), "count"},
      {"decide_ms.windows", static_cast<double>(windows), "count"},
      {"setup_first_s", setup_s_.front(), "s"},
      {"failed_ratio", static_cast<double>(failed_) / static_cast<double>(attempted_),
       "ratio"},
  };
  if (name_ == "store_replay") {
    r.extra.push_back({"hit_ms.p50", percentile(per_pass["read"], 0.5) / slowdown, "ms"});
    r.extra.push_back({"deepen_ms.p50", percentile(per_pass["write"], 0.5) / slowdown, "ms"});
  }
  return r;
}

Result Runner::layer_metrics() const {
  Result r;
  r.attempted = attempted_;
  r.failed = failed_;
  const double rounds = static_cast<double>(rounds_);
  double layer_sum = 0.0;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const double ms = tracer_.self_ms[i] / rounds;
    layer_sum += ms;
    r.metrics.push_back({std::string(layer_name(static_cast<Layer>(i))) + ".ms", ms, "ms"});
  }
  const WorkCounts c = round_counts_.value_or(WorkCounts{});
  const auto ratio = [](std::uint64_t hits, std::uint64_t base) {
    return base == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(base);
  };
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  const double untraced = untraced_ms_ / rounds;
  const double traced = traced_ms_ / rounds;
  const std::vector<Metric> more = {
      {"core.splits", count(c.splits), "count"},
      {"core.connectivity_csp.nodes", count(c.csp_nodes), "count"},
      {"core.homology_boundary_check.nodes", count(c.homology_nodes), "count"},
      {"topology.ladder.facets", count(c.ladder_facets), "count"},
      {"solver.find_decision_map.nodes", count(c.search_nodes), "count"},
      {"solver.image_cache.hit_ratio", ratio(c.image_hits, c.image_hits + c.image_misses),
       "ratio"},
      {"solver.image_cache.lookups", count(c.image_hits + c.image_misses), "count"},
      {"solver.edge_mask.hit_ratio", ratio(c.mask_hits, c.mask_hits + c.mask_misses),
       "ratio"},
      {"solver.edge_mask.lookups", count(c.mask_hits + c.mask_misses), "count"},
      {"tasks.fingerprint.leaves", count(c.fingerprint_leaves), "count"},
      {"io.store.bytes_written", count(c.bytes_written), "bytes"},
      {"io.store.hit_ratio", ratio(c.store_hits, c.store_lookups), "ratio"},
      {"io.store.lookups", count(c.store_lookups), "count"},
      {"solver.run_pipeline.ms", untraced, "ms"},
      {"solver.unattributed.ms", traced - layer_sum, "ms"},
      {"trace.coverage_pct", untraced == 0.0 ? 0.0 : 100.0 * layer_sum / untraced, "%"},
      {"trace.overhead_pct", untraced == 0.0 ? 0.0 : 100.0 * (traced - untraced) / untraced,
       "%"},
  };
  r.metrics.insert(r.metrics.end(), more.begin(), more.end());
  r.extra = {
      {"rounds", rounds, "count"},
      {"traced_decide.ms", traced, "ms"},
      {"failed_ratio", static_cast<double>(failed_) / static_cast<double>(attempted_),
       "ratio"},
  };
  return r;
}

// --- host stamp ---------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

const char* build_type() {
#ifdef NDEBUG
  return "release (NDEBUG)";
#else
  return "debug (assertions on)";
#endif
}

// One pass over the catalog, as `trichroma --jobs 1 --threads 1 batch` runs it.
void catalog_pass() {
  for (const zoo::CatalogEntry& e : zoo::catalog()) run_pipeline(e.build(), budget(2));
}

// Wall seconds for `copies` concurrent processes each running one catalog
// pass. Children are forked and always reaped.
double concurrent_catalog_passes(int copies) {
  std::fflush(stdout);
  std::vector<pid_t> children;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < copies; ++i) {
    const pid_t pid = fork();
    if (pid == 0) {
      catalog_pass();
      _exit(0);
    }
    if (pid > 0) children.push_back(pid);
  }
  bool ok = static_cast<int>(children.size()) == copies;
  for (pid_t pid : children) {
    int status = 0;
    pid_t reaped = -1;
    do {
      reaped = waitpid(pid, &status, 0);
    } while (reaped < 0 && errno == EINTR);
    ok = ok && reaped == pid && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  if (!ok) throw std::runtime_error("parallelism probe: a child failed");
  return seconds_since(start);
}

void print_stamp(const std::string& workload, std::uint64_t seed, const std::string& commit) {
  const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("host: nproc %d; cpu %s; build %s; commit %s\n", nproc, cpu_model().c_str(),
              build_type(), commit.c_str());
  std::printf("run: workload %s; seed %llu; closed loop, 1 caller, threads 1, "
              "schedule ladder, jobs 1\n",
              workload.c_str(), static_cast<unsigned long long>(seed));
  // Effective parallelism: N concurrent catalog passes vs one alone.
  const double alone = concurrent_catalog_passes(1);
  const double together = concurrent_catalog_passes(nproc);
  std::printf("parallelism probe: 1 catalog pass %.1f ms alone, %d concurrent %.1f ms; "
              "effective parallelism %.2f of %d\n",
              alone * 1000.0, nproc, together * 1000.0,
              static_cast<double>(nproc) * alone / together, nproc);
}

void print_metrics(const Result& r) {
  for (const Metric& m : r.metrics) {
    std::printf("metric %-36s %14s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  for (const Metric& m : r.extra) {
    std::printf("metric %-36s %14s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
}

std::string result_json(const Result& r) {
  std::string out = "{\"correct\": ";
  out += r.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out += (i == 0 ? "" : ", ");
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

// The smoke self-check: every workload once at minimal length, both modes.
int smoke(const fs::path& work_dir) {
  const std::vector<std::string> e2e = {"decide_ms.p50", "decide_ms.p90", "decides_per_s",
                                        "setup_s",       "setup_first_s", "peak_rss_mb",
                                        "failed_ratio"};
  std::vector<std::string> layers = {
      "core.splits", "core.connectivity_csp.nodes", "core.homology_boundary_check.nodes",
      "topology.ladder.facets", "solver.find_decision_map.nodes",
      "solver.image_cache.hit_ratio", "solver.edge_mask.hit_ratio", "tasks.fingerprint.leaves",
      "io.store.bytes_written", "io.store.hit_ratio", "solver.run_pipeline.ms",
      "solver.unattributed.ms", "trace.coverage_pct", "trace.overhead_pct", "failed_ratio"};
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    layers.push_back(std::string(layer_name(static_cast<Layer>(i))) + ".ms");
  }
  int problems = 0;
  for (const std::string& workload : kWorkloads) {
    for (const bool trace : {false, true}) {
      Result r = Runner(workload, 1, 0.0, trace, work_dir).run();
      print_metrics(r);
      std::vector<std::string> want = trace ? layers : e2e;
      if (!trace && workload == "store_replay") {
        want.push_back("hit_ms.p50");
        want.push_back("deepen_ms.p50");
      }
      for (const std::string& name : want) {
        bool found = false;
        for (const auto* list : {&r.metrics, &r.extra}) {
          for (const Metric& m : *list) found = found || (m.name == name && !m.unit.empty());
        }
        if (!found) {
          std::printf("SMOKE %s: metric %s missing\n", workload.c_str(), name.c_str());
          ++problems;
        }
      }
      if (r.failed != 0) {
        std::printf("SMOKE %s: failed_ratio is not 0 (%zu of %zu)\n", workload.c_str(),
                    r.failed, r.attempted);
        ++problems;
      }
    }
  }
  std::printf(problems == 0 ? "smoke: ok\n" : "smoke: %d problems\n", problems);
  return problems == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: trichroma_perf --workload W --seed N --seconds S --trace 0|1 "
               "[--commit C] [--work-dir D]\n"
               "       trichroma_perf --smoke [--work-dir D]\n");
  return 2;
}

int run_main(int argc, char** argv) {
  std::string workload;
  std::string commit = "unknown";
  std::string work_dir = ".bench_build/work";
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  bool smoke_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      smoke_mode = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = std::stoi(argv[++i]);
    } else if (arg == "--commit" && has_value) {
      commit = argv[++i];
    } else if (arg == "--work-dir" && has_value) {
      work_dir = argv[++i];
    } else {
      return usage();
    }
  }
  fs::create_directories(work_dir);
  if (smoke_mode) return smoke(work_dir);
  if (std::find(kWorkloads.begin(), kWorkloads.end(), workload) == kWorkloads.end() ||
      seconds < 0.0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  const Result r = Runner(workload, seed, seconds, trace == 1, work_dir).run();
  print_metrics(r);
  print_stamp(workload, seed, commit);
  std::printf("%s\n", result_json(r).c_str());
  return 0;
}

}  // namespace
}  // namespace trichroma::perf

int main(int argc, char** argv) {
  try {
    return trichroma::perf::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trichroma_perf: %s\n", e.what());
    return 1;
  }
}
