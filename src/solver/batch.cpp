#include "solver/batch.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstddef>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tasks/fingerprint.h"
#include "tasks/zoo.h"

namespace trichroma {

namespace {

std::size_t top_facet_count(const SimplicialComplex& k) {
  const int top = k.dimension();
  return top < 0 ? 0 : k.count(top);
}

}  // namespace

int resolve_batch_jobs(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

BatchResult run_batch(const BatchOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const std::vector<zoo::CatalogEntry>& all = zoo::catalog();

  std::vector<const zoo::CatalogEntry*> selected;
  if (options.only.empty()) {
    selected.reserve(all.size());
    for (const zoo::CatalogEntry& e : all) selected.push_back(&e);
  } else {
    // Catalog order, not request order: the output contract is positional.
    for (const std::string& name : options.only) {
      bool known = false;
      for (const zoo::CatalogEntry& e : all) known |= name == e.name;
      if (!known) throw std::invalid_argument("unknown catalog task: " + name);
    }
    for (const zoo::CatalogEntry& e : all) {
      for (const std::string& name : options.only) {
        if (name == e.name) {
          selected.push_back(&e);
          break;
        }
      }
    }
  }

  const SolvabilityOptions& per_task = options.solve;
  const std::size_t slots = selected.size();
  const bool dedup = !per_task.cache_dir.empty();

  BatchResult out;
  out.tasks.resize(slots);

  // Cache mode: a fingerprint pre-pass for intra-batch dedup (see the header
  // comment — isomorphic twins must not race to publish one store entry).
  // Each slot builds its own task (fresh pool, race-free) and fills only its
  // own row. A slot that fails to fingerprint simply runs cold like everyone
  // else.
  std::vector<int> dup_of(slots, -1);
  std::vector<std::string> task_names(slots);
  std::vector<std::size_t> in_facets(slots, 0);
  std::vector<std::size_t> out_facets(slots, 0);
  std::vector<std::string> fp_hex(slots);
  std::atomic<std::size_t> fp_next{0};
  const auto fingerprint_slots = [&] {
    for (;;) {
      const std::size_t i = fp_next.fetch_add(1, std::memory_order_relaxed);
      if (i >= slots) return;
      try {
        const Task task = selected[i]->build();
        task_names[i] = task.name;
        in_facets[i] = top_facet_count(task.input);
        out_facets[i] = top_facet_count(task.output);
        fp_hex[i] = fingerprint_of(task).hex();
      } catch (...) {
      }
    }
  };
  // The dedup itself runs once, in slot order, after every fingerprint is
  // in — which is what keeps `dup_of` (and therefore every replayed report)
  // independent of the job count. The barrier runs it, so it must not
  // throw: a quadratic scan over a catalog-sized selection allocates
  // nothing.
  const auto dedup_slots = [&]() noexcept {
    for (std::size_t i = 0; i < slots; ++i) {
      if (fp_hex[i].empty()) continue;  // build threw: no dedup for this slot
      for (std::size_t j = 0; j < i; ++j) {
        if (fp_hex[j] == fp_hex[i]) {
          dup_of[i] = static_cast<int>(j);
          break;
        }
      }
    }
  };

  // Heartbeat: liveness snapshots for long runs. `completed` counts slots
  // whose work is finished — dup slots count as soon as the drive loop skips
  // them (their replay is a post-join copy, not work). The writer spans the
  // whole run and flushes a final snapshot when reset below.
  std::atomic<std::uint64_t> completed{0};
  std::unique_ptr<obs::HeartbeatWriter> heartbeat;
  if (!options.heartbeat_file.empty()) {
    heartbeat = std::make_unique<obs::HeartbeatWriter>(
        options.heartbeat_file, options.heartbeat_interval_s,
        [&completed, slots] {
          return obs::HeartbeatProgress{
              completed.load(std::memory_order_relaxed),
              static_cast<std::uint64_t>(slots)};
        });
  }

  // Self-scheduling drive loop: claims slots until none are left. Tasks are
  // built inside the loop — each owns a fresh pool, so the builds are
  // race-free — and each writes only its own slot.
  std::atomic<std::size_t> next{0};
  const auto drive = [&] {
    static obs::Counter& tasks_done =
        obs::MetricsRegistry::global().counter("batch.tasks");
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= slots) return;
      if (dup_of[i] >= 0) {  // replayed from its twin after the join
        completed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      TRI_SPAN("batch/", selected[i]->name);
      const Task task = selected[i]->build();
      out.tasks[i].name = selected[i]->name;
      out.tasks[i].report = run_pipeline(task, per_task).report;
      tasks_done.add();
      completed.fetch_add(1, std::memory_order_relaxed);
    }
  };

  // The fan-out (see the header): the caller plus `threads - 1` helpers,
  // each running both phases, each phase inside one `batch/worker` span. A
  // thread that throws keeps its exception and sits out the rest; the
  // others finish the batch, and the first captured exception in thread
  // order is rethrown after the join.
  const std::size_t threads = std::min<std::size_t>(
      static_cast<std::size_t>(resolve_batch_jobs(options.jobs)), slots);
  std::barrier sync(static_cast<std::ptrdiff_t>(threads), dedup_slots);
  std::vector<std::exception_ptr> errors(threads);
  const auto phase = [&errors](std::size_t t, const auto& loop) {
    if (errors[t]) return;
    try {
      TRI_SPAN("batch/worker");
      loop();
    } catch (...) {
      errors[t] = std::current_exception();
    }
  };
  const auto worker = [&](std::size_t t) {
    if (dedup) phase(t, fingerprint_slots);
    sync.arrive_and_wait();
    phase(t, drive);
  };
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(threads - 1);
    for (std::size_t t = 1; t < threads; ++t) {
      try {
        helpers.emplace_back(worker, t);
      } catch (...) {
        sync.arrive_and_drop();  // the started threads cover its slots
      }
    }
    worker(0);
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  // Isomorphic-twin replays: the dedup pre-pass runs in slot order, so a
  // dup's twin always has a lower index and its report is final here. The
  // replay keeps the twin's verdict-relevant slice (byte-identical contract)
  // and the dup's own display identity.
  for (std::size_t i = 0; i < slots; ++i) {
    if (dup_of[i] < 0) continue;
    PipelineReport replay = out.tasks[static_cast<std::size_t>(dup_of[i])].report;
    // The built task's own name, exactly as a cold pipeline run would have
    // reported it (catalog keys and task names differ, e.g. "consensus3"
    // builds "consensus-3").
    replay.task_name = task_names[i];
    replay.input_facets = in_facets[i];
    replay.output_facets = out_facets[i];
    replay.cache = "hit";
    replay.cache_hits = 1;
    replay.cache_misses = 0;
    replay.cache_seeded_levels = 0;
    replay.cache_store_bytes = 0;
    replay.total_wall_ms = 0.0;
    // A twin replay did no consult/engine/publish work of its own; zero the
    // phase clocks like total_wall_ms (they are redacted in report files
    // anyway, but keep the in-memory report honest).
    replay.phase_consult_ms = 0.0;
    replay.phase_engines_ms = 0.0;
    replay.phase_publish_ms = 0.0;
    out.tasks[i].name = selected[i]->name;
    out.tasks[i].report = std::move(replay);
    obs::MetricsRegistry::global().counter("cache.hit").add();
  }

  // Final heartbeat flush (progress now reads done == total) and thread
  // join before the result is returned.
  heartbeat.reset();

  for (const BatchTaskResult& t : out.tasks) {
    out.unknown += t.report.verdict == Verdict::Unknown ? 1 : 0;
    out.cache_hits += t.report.cache_hits > 0 ? 1 : 0;
    out.cache_misses += t.report.cache_misses > 0 ? 1 : 0;
    out.cache_artifacts += t.report.cache == "artifacts" ? 1 : 0;
  }
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return out;
}

}  // namespace trichroma
