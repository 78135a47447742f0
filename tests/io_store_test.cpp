// Tests for the content-addressed verdict/artifact store (io/store.h):
// container integrity (corruption, truncation, version skew ⇒ miss, never a
// crash), verdict-record round trips, and artifact round trips across
// chromatic isomorphism.

#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "io/report.h"
#include "io/store.h"
#include "solver/pipeline.h"
#include "tasks/fingerprint.h"
#include "tasks/zoo.h"
#include "topology/subdivision.h"

namespace trichroma {
namespace {

namespace fs = std::filesystem;

// Same helper as tasks_fingerprint_test: a chromatically isomorphic copy in
// a fresh pool with scrambled values and insertion orders.
Task relabel(const Task& task, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Task out;
  out.pool = std::make_shared<VertexPool>();
  out.name = task.name + "-relabeled";
  out.num_processes = task.num_processes;
  std::vector<VertexId> verts = task.input.vertex_ids();
  for (VertexId v : task.output.vertex_ids()) verts.push_back(v);
  std::sort(verts.begin(), verts.end(),
            [](VertexId a, VertexId b) { return raw(a) < raw(b); });
  verts.erase(std::unique(verts.begin(), verts.end()), verts.end());
  std::shuffle(verts.begin(), verts.end(), rng);
  std::map<VertexId, VertexId> m;
  std::int64_t next = 1000 + static_cast<std::int64_t>(rng() % 100000);
  for (VertexId v : verts) {
    m[v] = out.pool->vertex(task.pool->color(v), next++);
  }
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
    for (const Simplex& tau : task.delta.facet_images(sigma)) {
      images.push_back(ms(tau));
    }
    std::shuffle(images.begin(), images.end(), rng);
    for (const Simplex& tau : images) out.delta.add(ms(sigma), tau);
  }
  return out;
}

std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  // The pid keeps concurrent test processes (ctest -j) out of each
  // other's directories; the counter separates calls within one process.
  const std::string dir =
      testing::TempDir() + "trichroma-store-" + tag + "-" +
      std::to_string(::getpid()) + "-" + std::to_string(++counter);
  fs::remove_all(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

// The single verdict-record file inside a one-entry store.
std::string record_path(const io::VerdictStore& store,
                        const TaskFingerprint& fp) {
  for (const auto& e : fs::directory_iterator(store.entry_dir(fp))) {
    const std::string name = e.path().filename().string();
    if (name.rfind("verdict-", 0) == 0) return e.path().string();
  }
  return {};
}

TEST(Store, Fnv1a64KnownValues) {
  EXPECT_EQ(io::fnv1a64("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(io::fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
}

TEST(Store, WrapUnwrapRoundTrip) {
  const std::string body = "line one\nline two\n\x01\x02 binary-ish\n";
  const std::string wrapped = io::wrap_record("test-kind", body);
  std::string out;
  ASSERT_TRUE(io::unwrap_record(wrapped, "test-kind", &out));
  EXPECT_EQ(out, body);
  // Wrong kind, truncation, flipped byte, wrong schema: all misses.
  EXPECT_FALSE(io::unwrap_record(wrapped, "other-kind", &out));
  EXPECT_FALSE(io::unwrap_record(wrapped.substr(0, wrapped.size() - 4),
                                 "test-kind", &out));
  std::string flipped = wrapped;
  flipped[flipped.size() - 3] ^= 0x20;
  EXPECT_FALSE(io::unwrap_record(flipped, "test-kind", &out));
  std::string skewed = wrapped;
  skewed.replace(skewed.find("/1 "), 3, "/9 ");
  EXPECT_FALSE(io::unwrap_record(skewed, "test-kind", &out));
  EXPECT_FALSE(io::unwrap_record("", "test-kind", &out));
}

TEST(Store, OptionsDigestSeparatesBudgets) {
  SolvabilityOptions a;
  const std::string base = io::options_digest(a, "ladder");
  EXPECT_EQ(io::options_digest(a, "ladder"), base);
  EXPECT_EQ(base.size(), 16u);
  EXPECT_NE(io::options_digest(a, "exact"), base);
  SolvabilityOptions b = a;
  b.max_radius = a.max_radius + 1;
  EXPECT_NE(io::options_digest(b, "ladder"), base);
  SolvabilityOptions c = a;
  c.node_cap = a.node_cap / 2;
  EXPECT_NE(io::options_digest(c, "ladder"), base);
  // The ignored thread count is explicitly NOT part of the key.
  SolvabilityOptions d = a;
  d.threads = 7;
  EXPECT_EQ(io::options_digest(d, "ladder"), base);
  // Neither is the store location itself.
  SolvabilityOptions e = a;
  e.cache_dir = "/somewhere/else";
  EXPECT_EQ(io::options_digest(e, "ladder"), base);
}

TEST(Store, VerdictRecordRoundTripsTheDeterministicSlice) {
  const Task task = zoo::hourglass();
  const PipelineReport cold = run_pipeline(task).report;
  ASSERT_FALSE(cold.engines.empty());

  PipelineReport parsed;
  ASSERT_TRUE(
      io::parse_verdict_record(io::serialize_verdict_record(cold), &parsed));
  // Options and cache outcome live in the store key / the consulting run,
  // not in the record: copy them over, then demand byte-identical JSON
  // under redacted timings (the record never stores wall clocks).
  parsed.options = cold.options;
  parsed.cache = cold.cache;
  io::ReportJsonOptions json;
  json.redact_timings = true;
  EXPECT_EQ(io::to_json(parsed, json), io::to_json(cold, json));
}

TEST(Store, VerdictRecordVersionMismatchIsAMiss) {
  const PipelineReport cold =
      run_pipeline(zoo::consensus_2(), SolvabilityOptions{}).report;
  std::string body = io::serialize_verdict_record(cold);
  const auto pos = body.find("trichroma.verdict-record/3");
  ASSERT_NE(pos, std::string::npos);
  body.replace(pos, 26, "trichroma.verdict-record/9");
  PipelineReport parsed;
  EXPECT_FALSE(io::parse_verdict_record(body, &parsed));
}

TEST(Store, StoreAndLoadVerdict) {
  const Task task = zoo::consensus_2();
  const TaskFingerprint fp = fingerprint_of(task);
  SolvabilityOptions options;
  const std::string digest = io::options_digest(options, "exact");
  const PipelineReport cold = run_pipeline(task, options).report;

  io::VerdictStore store(fresh_dir("roundtrip"));
  PipelineReport loaded;
  EXPECT_FALSE(store.load_verdict(fp, digest, &loaded));  // empty store
  ASSERT_TRUE(store.store_verdict(fp, digest, cold));
  EXPECT_GT(store.bytes_written(), 0u);
  ASSERT_TRUE(store.load_verdict(fp, digest, &loaded));
  EXPECT_EQ(loaded.verdict, cold.verdict);
  EXPECT_EQ(loaded.reason, cold.reason);
  EXPECT_EQ(loaded.schedule, cold.schedule);
  EXPECT_EQ(loaded.engines.size(), cold.engines.size());
  // A different budget digest misses even with the record present.
  EXPECT_FALSE(store.load_verdict(fp, "0123456789abcdef", &loaded));
}

TEST(Store, CorruptOrTruncatedEntryIsAMiss) {
  const Task task = zoo::consensus_2();
  const TaskFingerprint fp = fingerprint_of(task);
  SolvabilityOptions options;
  const std::string digest = io::options_digest(options, "exact");
  const PipelineReport cold = run_pipeline(task, options).report;

  io::VerdictStore store(fresh_dir("corrupt"));
  ASSERT_TRUE(store.store_verdict(fp, digest, cold));
  const std::string path = record_path(store, fp);
  ASSERT_FALSE(path.empty());
  const std::string pristine = read_file(path);

  std::string corrupt = pristine;
  corrupt[corrupt.size() / 2] ^= 0x01;
  write_file(path, corrupt);
  PipelineReport loaded;
  EXPECT_FALSE(store.load_verdict(fp, digest, &loaded));

  write_file(path, pristine.substr(0, pristine.size() / 2));
  EXPECT_FALSE(store.load_verdict(fp, digest, &loaded));

  write_file(path, "");
  EXPECT_FALSE(store.load_verdict(fp, digest, &loaded));

  write_file(path, pristine);
  EXPECT_TRUE(store.load_verdict(fp, digest, &loaded));
}

TEST(Store, StoreSchemaMismatchIsAMiss) {
  const Task task = zoo::consensus_2();
  const TaskFingerprint fp = fingerprint_of(task);
  SolvabilityOptions options;
  const std::string digest = io::options_digest(options, "exact");
  io::VerdictStore store(fresh_dir("schema"));
  ASSERT_TRUE(
      store.store_verdict(fp, digest,
                          run_pipeline(task, options).report));
  const std::string path = record_path(store, fp);
  std::string skewed = read_file(path);
  const auto pos = skewed.find("trichroma.store/1");
  ASSERT_NE(pos, std::string::npos);
  skewed.replace(pos, 17, "trichroma.store/9");
  write_file(path, skewed);
  PipelineReport loaded;
  EXPECT_FALSE(store.load_verdict(fp, digest, &loaded));
}

TEST(Store, UnwritableRootDegradesToMisses) {
  io::VerdictStore store("/proc/definitely/not/writable");
  const TaskFingerprint fp = fingerprint_of(zoo::consensus_2());
  PipelineReport report;
  EXPECT_FALSE(store.store_verdict(fp, "0000000000000000", report));
  EXPECT_FALSE(store.load_verdict(fp, "0000000000000000", &report));
  EXPECT_EQ(store.bytes_written(), 0u);
}

TEST(Store, ArtifactRoundTripAndCorruption) {
  io::VerdictStore store(fresh_dir("artifact"));
  const TaskFingerprint fp = fingerprint_of(zoo::hourglass());
  const std::string body = "artifact payload\nwith lines\n";
  ASSERT_TRUE(store.store_artifact(fp, "probe.data", body));
  std::string loaded;
  ASSERT_TRUE(store.load_artifact(fp, "probe.data", &loaded));
  EXPECT_EQ(loaded, body);
  EXPECT_FALSE(store.load_artifact(fp, "missing.data", &loaded));
}

// The tentpole artifact property: a ladder tower serialized from one task
// loads against a chromatically isomorphic task and is facet-for-facet AND
// carrier-for-carrier identical to that task's own cold subdivision.
TEST(Store, LadderLevelsRoundTripAcrossIsomorphism) {
  const Task a = zoo::hourglass();
  const FingerprintResult fa = fingerprint_task(a);
  SubdivisionLadder ladder(*a.pool, a.input);
  std::vector<std::shared_ptr<const SubdividedComplex>> levels;
  for (int r = 0; r <= 2; ++r) levels.push_back(ladder.share(r));
  const std::string body = io::serialize_ladder_levels(a, fa.labeling, levels);

  const Task b = relabel(a, 99);
  const FingerprintResult fb = fingerprint_task(b);
  ASSERT_EQ(fa.fingerprint.hex(), fb.fingerprint.hex());
  std::vector<SubdividedComplex> loaded;
  ASSERT_TRUE(io::load_ladder_levels(b, fb.labeling, body, &loaded));
  ASSERT_EQ(loaded.size(), 3u);

  const auto facet_key = [](const SimplicialComplex& c) {
    std::vector<std::vector<std::uint32_t>> rows;
    for (const Simplex& f : c.facets()) {
      std::vector<std::uint32_t> row;
      for (VertexId v : f) row.push_back(raw(v));
      std::sort(row.begin(), row.end());
      rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  for (int r = 1; r <= 2; ++r) {
    const SubdividedComplex cold = chromatic_subdivision(*b.pool, b.input, r);
    EXPECT_EQ(facet_key(loaded[static_cast<std::size_t>(r)].complex),
              facet_key(cold.complex))
        << "level " << r;
    const auto& warm_carrier = loaded[static_cast<std::size_t>(r)].carrier;
    ASSERT_EQ(warm_carrier.size(), cold.carrier.size()) << "level " << r;
    for (const auto& [v, carrier] : cold.carrier) {
      const auto it = warm_carrier.find(v);
      ASSERT_NE(it, warm_carrier.end());
      EXPECT_TRUE(it->second == carrier);
    }
  }
}

TEST(Store, LadderLevelsRejectMalformedBodies) {
  const Task a = zoo::hourglass();
  const FingerprintResult fa = fingerprint_task(a);
  std::vector<SubdividedComplex> out;
  EXPECT_FALSE(io::load_ladder_levels(a, fa.labeling, "", &out));
  EXPECT_FALSE(io::load_ladder_levels(a, fa.labeling, "garbage\n", &out));
  SubdivisionLadder ladder(*a.pool, a.input);
  std::vector<std::shared_ptr<const SubdividedComplex>> levels{ladder.share(0),
                                                               ladder.share(1)};
  std::string body = io::serialize_ladder_levels(a, fa.labeling, levels);
  body.resize(body.size() * 2 / 3);  // mid-row truncation
  EXPECT_FALSE(io::load_ladder_levels(a, fa.labeling, body, &out));
}

TEST(Store, NineOrdinalSimplexIsAMiss) {
  // A simplex holds at most 8 vertices; an artifact row listing 9 throws
  // inside the loader, which must turn it into a miss.
  const std::string nine = "0,1,2,3,4,5,6,7,8";
  const Task a = zoo::hourglass();
  const FingerprintResult fa = fingerprint_task(a);
  SubdivisionLadder ladder(*a.pool, a.input);
  std::vector<std::shared_ptr<const SubdividedComplex>> levels{ladder.share(0),
                                                               ladder.share(1)};
  std::string ladder_body = io::serialize_ladder_levels(a, fa.labeling, levels);
  std::vector<SubdividedComplex> loaded;
  ASSERT_TRUE(io::load_ladder_levels(a, fa.labeling, ladder_body, &loaded));
  const std::size_t facet = ladder_body.find("\nf ") + 3;
  ladder_body.replace(facet, ladder_body.find('\n', facet) - facet, nine);
  EXPECT_FALSE(io::load_ladder_levels(a, fa.labeling, ladder_body, &loaded));

  const Task b = zoo::fig3_running_example();
  const FingerprintResult fb = fingerprint_task(b);
  ASSERT_GE(fb.labeling.order.size(), 9u);
  std::vector<std::pair<Simplex, std::vector<Simplex>>> rows;
  EXPECT_TRUE(io::load_delta_images(b, fb.labeling,
                                    "delta-images/1\nrows=1\nd 0 > 0\n", &rows));
  EXPECT_FALSE(io::load_delta_images(
      b, fb.labeling, "delta-images/1\nrows=1\nd " + nine + " > 0\n", &rows));
  EXPECT_FALSE(io::load_delta_images(
      b, fb.labeling, "delta-images/1\nrows=1\nd 0 > " + nine + "\n", &rows));
}

TEST(Store, VerdictRecordBudgetRoundTrips) {
  const PipelineReport cold =
      run_pipeline(zoo::consensus_2(), SolvabilityOptions{}).report;
  io::VerdictRecordBudget budget;
  budget.max_radius = 5;
  budget.node_cap = 123456;
  budget.use_characterization = false;
  budget.reuse_subdivisions = true;
  budget.reuse_images = false;
  const std::string body = io::serialize_verdict_record(cold, budget);
  PipelineReport parsed;
  io::VerdictRecordBudget out;
  ASSERT_TRUE(io::parse_verdict_record(body, &parsed, &out));
  EXPECT_EQ(out.max_radius, 5);
  EXPECT_EQ(out.node_cap, 123456u);
  EXPECT_FALSE(out.use_characterization);
  EXPECT_TRUE(out.reuse_subdivisions);
  EXPECT_FALSE(out.reuse_images);
}

TEST(Store, SiblingScanEnumeratesRecordsAcrossDigests) {
  const Task task = zoo::consensus_2();
  const TaskFingerprint fp = fingerprint_of(task);
  const PipelineReport cold =
      run_pipeline(task, SolvabilityOptions{}).report;
  const io::VerdictStore store(fresh_dir("siblings"));
  EXPECT_TRUE(store.scan_siblings(fp).empty());

  io::VerdictRecordBudget shallow;
  shallow.max_radius = 1;
  io::VerdictRecordBudget deep;
  deep.max_radius = 3;
  ASSERT_TRUE(store.store_verdict(fp, "000000000000000a", cold, shallow));
  ASSERT_TRUE(store.store_verdict(fp, "000000000000000b", cold, deep));

  const std::vector<io::SiblingVerdict> siblings = store.scan_siblings(fp);
  ASSERT_EQ(siblings.size(), 2u);
  // Digest order: the scan is deterministic regardless of write order.
  EXPECT_EQ(siblings[0].opt_digest, "000000000000000a");
  EXPECT_EQ(siblings[0].budget.max_radius, 1);
  EXPECT_EQ(siblings[1].opt_digest, "000000000000000b");
  EXPECT_EQ(siblings[1].budget.max_radius, 3);
  EXPECT_EQ(siblings[0].report.verdict, cold.verdict);

  // A corrupted sibling is skipped, not fatal — the scan returns the rest.
  const std::string rec_path = std::string(store.root()) + "/" +
                               fp.hex().substr(0, 2) + "/" + fp.hex() +
                               "/verdict-000000000000000a.rec";
  std::ofstream(rec_path, std::ios::binary) << "torn write";
  const std::vector<io::SiblingVerdict> after = store.scan_siblings(fp);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].opt_digest, "000000000000000b");
}

TEST(Store, LadderLevelsLoadTruncatesToRequestedDepth) {
  const Task a = zoo::hourglass();
  const FingerprintResult fa = fingerprint_task(a);
  SubdivisionLadder ladder(*a.pool, a.input);
  std::vector<std::shared_ptr<const SubdividedComplex>> levels;
  for (int r = 0; r <= 2; ++r) levels.push_back(ladder.share(r));
  const std::string body = io::serialize_ladder_levels(a, fa.labeling, levels);
  ASSERT_EQ(io::ladder_levels_count(body), 3u);

  // A fresh twin pool per load: truncated materialization must intern ONLY
  // the vertices of the levels it returns (the warm-start precondition —
  // deeper stored rows would pollute the pool with ids a cold run at the
  // smaller radius never creates).
  const Task b = relabel(a, 41);
  const FingerprintResult fb = fingerprint_task(b);
  std::vector<SubdividedComplex> truncated;
  ASSERT_TRUE(io::load_ladder_levels(b, fb.labeling, body, &truncated, 2));
  ASSERT_EQ(truncated.size(), 2u);

  const Task c = relabel(a, 41);
  const FingerprintResult fc = fingerprint_task(c);
  std::vector<SubdividedComplex> full;
  ASSERT_TRUE(io::load_ladder_levels(c, fc.labeling, body, &full));
  ASSERT_EQ(full.size(), 3u);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(truncated[r].complex.count(2), full[r].complex.count(2));
  }
  EXPECT_LT(b.pool->size(), c.pool->size());

  // Zero levels is a refusal, not an empty success.
  std::vector<SubdividedComplex> none;
  EXPECT_FALSE(io::load_ladder_levels(b, fb.labeling, body, &none, 0));
}

TEST(Store, StatsClassifiesRecordsAndArtifacts) {
  const Task task = zoo::consensus_2();
  const TaskFingerprint fp = fingerprint_of(task);
  const PipelineReport cold =
      run_pipeline(task, SolvabilityOptions{}).report;
  const io::VerdictStore store(fresh_dir("stats"));
  const io::VerdictStore::Stats empty = store.stats();
  EXPECT_EQ(empty.entries, 0u);
  EXPECT_EQ(empty.total_bytes(), 0u);

  ASSERT_TRUE(store.store_verdict(fp, "0000000000000001", cold));
  ASSERT_TRUE(store.store_verdict(fp, "0000000000000002", cold));
  ASSERT_TRUE(store.store_artifact(fp, "ladder.levels", "ladder-levels/2\n"));
  const io::VerdictStore::Stats stats = store.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.verdict_records, 2u);
  EXPECT_EQ(stats.artifact_files, 1u);
  EXPECT_EQ(stats.other_files, 0u);
  EXPECT_GT(stats.verdict_bytes, 0u);
  EXPECT_GT(stats.artifact_bytes, 0u);
  EXPECT_EQ(stats.total_bytes(), stats.verdict_bytes + stats.artifact_bytes);
}

TEST(Store, PruneEvictsWholeEntriesOldestFirst) {
  const Task old_task = zoo::consensus_2();
  const Task new_task = zoo::hourglass();
  const TaskFingerprint old_fp = fingerprint_of(old_task);
  const TaskFingerprint new_fp = fingerprint_of(new_task);
  const PipelineReport old_report =
      run_pipeline(old_task, SolvabilityOptions{}).report;
  const PipelineReport new_report =
      run_pipeline(new_task, SolvabilityOptions{}).report;

  const io::VerdictStore store(fresh_dir("prune"));
  ASSERT_TRUE(store.store_verdict(old_fp, "0000000000000001", old_report));
  ASSERT_TRUE(store.store_artifact(old_fp, "ladder.levels", "old"));
  ASSERT_TRUE(store.store_verdict(new_fp, "0000000000000002", new_report));
  ASSERT_TRUE(store.store_artifact(new_fp, "ladder.levels", "new"));

  // Filesystem timestamp granularity can be coarse: age the first entry
  // explicitly so "oldest" is unambiguous.
  const fs::path old_dir = fs::path(store.root()) /
                           old_fp.hex().substr(0, 2) / old_fp.hex();
  const auto past = fs::file_time_type::clock::now() - std::chrono::hours(2);
  for (const auto& f : fs::directory_iterator(old_dir)) {
    fs::last_write_time(f.path(), past);
  }

  const std::uint64_t total = store.stats().total_bytes();
  const io::VerdictStore::PruneResult pruned = store.prune(total - 1);
  EXPECT_EQ(pruned.evicted_entries, 1u);
  EXPECT_GT(pruned.evicted_bytes, 0u);
  EXPECT_EQ(pruned.remaining_bytes, total - pruned.evicted_bytes);

  // Whole-entry eviction: the oldest task lost its record AND artifact; the
  // survivor kept both — a surviving verdict is never stranded without the
  // artifacts published beside it.
  PipelineReport loaded;
  std::string body;
  EXPECT_FALSE(store.load_verdict(old_fp, "0000000000000001", &loaded));
  EXPECT_FALSE(store.load_artifact(old_fp, "ladder.levels", &body));
  EXPECT_TRUE(store.load_verdict(new_fp, "0000000000000002", &loaded));
  EXPECT_TRUE(store.load_artifact(new_fp, "ladder.levels", &body));

  // Pruning to zero clears everything; an empty store prunes to a no-op.
  const io::VerdictStore::PruneResult all = store.prune(0);
  EXPECT_EQ(all.evicted_entries, 1u);
  EXPECT_EQ(all.remaining_bytes, 0u);
  EXPECT_EQ(store.prune(0).evicted_entries, 0u);
}

TEST(Store, DeltaImagesRoundTripAcrossIsomorphism) {
  const Task a = zoo::fig3_running_example();
  const FingerprintResult fa = fingerprint_task(a);
  const std::string body = io::serialize_delta_images(a, fa.labeling);

  const Task b = relabel(a, 123);
  const FingerprintResult fb = fingerprint_task(b);
  std::vector<std::pair<Simplex, std::vector<Simplex>>> rows;
  ASSERT_TRUE(io::load_delta_images(b, fb.labeling, body, &rows));
  ASSERT_EQ(rows.size(), b.delta.domain().size());
  for (auto& [sigma, images] : rows) {
    std::vector<Simplex> expected = b.delta.facet_images(sigma);
    std::sort(expected.begin(), expected.end());
    std::sort(images.begin(), images.end());
    EXPECT_EQ(images, expected) << "Δ(" << sigma.to_string(*b.pool) << ")";
  }
}

}  // namespace
}  // namespace trichroma
