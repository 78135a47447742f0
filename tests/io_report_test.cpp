// The JSON pipeline report: schema stability (checked-in golden files for
// the hourglass and loop_torus runs and for every catalog task) and the
// basic emitter invariants.

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "io/report.h"
#include "solver/pipeline.h"
#include "tasks/zoo.h"

namespace trichroma {
namespace {

std::string read_golden(const std::string& name) {
  const std::string path = std::string(TRICHROMA_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(Report, HourglassGoldenFile) {
  // The whole report is deterministic (engine statuses and node counts
  // included); redacting timings makes it byte-stable. The hourglass is
  // refuted before the homology engine runs; loop_torus reaches it, so its
  // report pins the Betti numbers and the engine's detail and node count.
  io::ReportJsonOptions json;
  json.redact_timings = true;
  EXPECT_EQ(io::to_json(run_pipeline(zoo::hourglass()).report, json),
            read_golden("hourglass_report.json"));
  EXPECT_EQ(io::to_json(run_pipeline(zoo::loop_agreement_torus()).report, json),
            read_golden("loop_torus_report.json"));
}

TEST(Report, CatalogGoldenFiles) {
  // Every catalog report, generated before the impossibility engines moved
  // onto Δ's facet lists. Corollary 5.5 fires on consensus3, hourglass,
  // test_and_set3 and twisted_hourglass, Corollary 5.6 on pinwheel and
  // test_and_set3, and the homology check refutes loop_hollow, loop_rp2,
  // loop_torus and set_agreement_32, so these files pin each engine's
  // verdict, detail and node count. Random draws are not pinned here:
  // std::shuffle and the <random> distributions are implementation-defined
  // (core_obstructions_oracle_test covers them in-process).
  io::ReportJsonOptions json;
  json.redact_timings = true;
  for (const zoo::CatalogEntry& entry : zoo::catalog()) {
    EXPECT_EQ(io::to_json(run_pipeline(entry.build()).report, json),
              read_golden("catalog/" + std::string(entry.name) + ".json"))
        << entry.name;
  }
}

TEST(Report, SchemaFieldsPresentForEveryVerdictShape) {
  // One solvable (radius > 0), one two-process: the other report shapes.
  for (Task (*build)() : {+[] { return zoo::subdivision_task(1); },
                          +[] { return zoo::consensus_2(); }}) {
    const PipelineResult r = run_pipeline(build());
    const std::string json = io::to_json(r.report);
    EXPECT_NE(json.find("\"schema\": \"trichroma.pipeline-report/10\""),
              std::string::npos);
    EXPECT_NE(json.find("\"verdict\":"), std::string::npos);
    // Schema v6/v7: the verdict-store marker and rollup, each on one line so
    // `grep -v '"cache":'` strips every cache-dependent field.
    EXPECT_NE(json.find("\"cache\": \"off\""), std::string::npos);
    EXPECT_NE(json.find("\"cache\": { \"hits\": 0, \"misses\": 0, "
                        "\"seeded_levels\": 0, \"store_bytes\": 0 }"),
              std::string::npos);
    EXPECT_NE(json.find("\"engines\": ["), std::string::npos);
    EXPECT_NE(json.find("\"characterization\": "), std::string::npos);
    // Schema v4: the metrics section with its deterministic rollups. Schema
    // v10 dropped its executor and ladder telemetry sub-objects.
    EXPECT_NE(json.find("\"metrics\": {"), std::string::npos);
    EXPECT_NE(json.find("\"nodes_explored_total\":"), std::string::npos);
    EXPECT_EQ(json.find("\"executor\":"), std::string::npos);
    EXPECT_EQ(json.find("\"ladder\":"), std::string::npos);
    // Schema v9: per-run attribution. The "run" object (phases, cache tier
    // on a `"cache":` line, deterministic rollups) and the per-engine
    // distributions, each rendered on a single line.
    EXPECT_NE(json.find("\"run\": {"), std::string::npos);
    EXPECT_NE(json.find("\"phases\": {"), std::string::npos);
    EXPECT_NE(json.find("\"consult_ms\":"), std::string::npos);
    EXPECT_NE(json.find("\"engines_ms\":"), std::string::npos);
    EXPECT_NE(json.find("\"publish_ms\":"), std::string::npos);
    EXPECT_NE(json.find("\"cache\": { \"tier\": \"off\", "
                        "\"seeded_levels\": 0 }"),
              std::string::npos);
    EXPECT_NE(json.find("\"domain_sizes\": { \"count\":"), std::string::npos);
    EXPECT_NE(json.find("\"ladder_levels\": ["), std::string::npos);
    EXPECT_NE(json.find("\"level_facets\": ["), std::string::npos);
    EXPECT_EQ(json.back(), '\n');
  }
}

TEST(Report, CharacterizationMarkerIsExplicitNeverAbsent) {
  // The marker must be present with a concrete value in BOTH states — a
  // consumer should never have to interpret a missing field. With the
  // characterization route disabled the engine cannot run, so the report
  // must say "not-computed".
  SolvabilityOptions off;
  off.use_characterization = false;
  const PipelineResult skipped = run_pipeline(zoo::hourglass(), off);
  EXPECT_EQ(skipped.characterization, nullptr);
  const std::string skipped_json = io::to_json(skipped.report);
  EXPECT_NE(skipped_json.find("\"characterization\": \"not-computed\""),
            std::string::npos);
  EXPECT_EQ(skipped_json.find("\"characterization\": null"),
            std::string::npos);

  // Hourglass runs the impossibility ladder to completion, so the payload
  // exists and the marker flips.
  const PipelineResult computed = run_pipeline(zoo::hourglass());
  EXPECT_NE(computed.characterization, nullptr);
  EXPECT_NE(io::to_json(computed.report)
                .find("\"characterization\": \"computed\""),
            std::string::npos);
}

TEST(Report, RedactTimingsZeroesEveryWallClock) {
  const PipelineResult r = run_pipeline(zoo::identity_task());
  io::ReportJsonOptions json;
  json.redact_timings = true;
  const std::string text = io::to_json(r.report, json);
  EXPECT_EQ(text.find("wall_ms\": 0.000") == std::string::npos, false);
  // No non-zero wall_ms survives redaction.
  for (std::size_t pos = text.find("wall_ms"); pos != std::string::npos;
       pos = text.find("wall_ms", pos + 1)) {
    EXPECT_EQ(text.substr(pos, std::string("wall_ms\": 0.000").size()),
              "wall_ms\": 0.000");
  }
}

TEST(Report, JsonEscapeHandlesControlAndQuoteCharacters) {
  EXPECT_EQ(io::json_escape("plain"), "plain");
  EXPECT_EQ(io::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(io::json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(io::json_escape(std::string(1, '\x01')), "\\u0001");
  // UTF-8 payloads (the reasons contain Δ and ') pass through untouched.
  EXPECT_EQ(io::json_escape("Δ'"), "Δ'");
}

}  // namespace
}  // namespace trichroma
