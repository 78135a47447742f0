// Tests for the task text format and DOT export.

#include <utility>

#include <gtest/gtest.h>

#include "io/task_format.h"
#include "solver/solvability.h"
#include "tasks/zoo.h"

namespace trichroma {
namespace {

TEST(Io, ParseMinimalTask) {
  const Task t = io::parse_task(R"(
# a 2-process one-shot task
task tiny
processes 2
input P0:a P1:b
delta P0:a -> P0:x
delta P1:b -> P1:y
delta P0:a P1:b -> P0:x P1:y
)");
  EXPECT_EQ(t.name, "tiny");
  EXPECT_EQ(t.num_processes, 2);
  EXPECT_TRUE(t.validate().empty()) << t.validate().front();
  EXPECT_EQ(t.output.count(1), 1u);
}

TEST(Io, ParseMultipleImages) {
  const Task t = io::parse_task(R"(
task choice
processes 2
input P0:0 P1:0
delta P0:0 -> P0:0 | P0:1
delta P1:0 -> P1:0
delta P0:0 P1:0 -> P0:0 P1:0 | P0:1 P1:0
)");
  EXPECT_EQ(t.delta.facet_images(t.input.facets().front()).size(), 2u);
  EXPECT_TRUE(t.validate().empty());
}

TEST(Io, ParseErrorsCarryLineNumbers) {
  EXPECT_THROW(io::parse_task("processes 3\n"), io::ParseError);
  try {
    io::parse_task("task x\nprocesses 3\ninput P0:0 P1:1 P2:2\nbogus line\n");
    FAIL() << "expected ParseError";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.line(), 4);
  }
  // Color out of range.
  EXPECT_THROW(io::parse_task("task x\nprocesses 2\ninput P5:0 P1:1\n"),
               io::ParseError);
  // Delta before its input simplex is declared.
  EXPECT_THROW(io::parse_task("task x\nprocesses 2\ndelta P0:0 -> P0:1\n"),
               io::ParseError);
  // Image dimension mismatch.
  EXPECT_THROW(io::parse_task("task x\nprocesses 2\ninput P0:0 P1:0\n"
                              "delta P0:0 P1:0 -> P0:1\n"),
               io::ParseError);
  // Missing arrow.
  EXPECT_THROW(io::parse_task("task x\nprocesses 2\ninput P0:0 P1:0\n"
                              "delta P0:0 P1:0 P0:1 P1:1\n"),
               io::ParseError);
  // More vertices than processes: just over, past a Simplex's capacity of 8
  // and past the old 16-vertex face bound. Each names its line.
  for (const int count : {4, 12, 17}) {
    std::string text = "task x\nprocesses 3\ninput";
    for (int i = 0; i < count; ++i) {
      text += " P" + std::to_string(i % 3) + ":" + std::to_string(i);
    }
    try {
      io::parse_task(text + "\n");
      FAIL() << count << " vertices: expected ParseError";
    } catch (const io::ParseError& e) {
      EXPECT_EQ(e.line(), 3) << count << " vertices";
    }
  }
  try {
    io::parse_task("task x\nprocesses 2\ninput P0:0 P1:0\n"
                   "delta P0:0 P1:0 -> P0:1 P1:1 P0:2\n");
    FAIL() << "oversized image: expected ParseError";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.line(), 4);
  }
  // Integer tokens too large for their type: the process count, a color
  // and an integer value. Each names its line.
  const std::pair<const char*, int> overflows[] = {
      {"task x\nprocesses 99999999999\n", 2},
      {"task x\nprocesses 3\ninput P0:0 P99999999999:1\n", 3},
      {"task x\nprocesses 3\ninput P0:0 P1:1 P2:99999999999999999999999\n", 3},
  };
  for (const auto& [text, line] : overflows) {
    try {
      io::parse_task(text);
      FAIL() << text << ": expected ParseError";
    } catch (const io::ParseError& e) {
      EXPECT_EQ(e.line(), line) << text;
    }
  }
  // A repeated vertex is listed once.
  EXPECT_EQ(io::parse_task("task x\nprocesses 2\ninput P0:0 P1:0 P0:0\n")
                .input.dimension(),
            1);
}

TEST(Io, RoundTripPreservesStructureAndVerdicts) {
  const std::vector<Task> tasks = {
      zoo::consensus(3),    zoo::hourglass(),           zoo::pinwheel(),
      zoo::identity_task(), zoo::majority_consensus(),  zoo::fan_task(4),
      zoo::consensus_2(),   zoo::fig3_running_example(),
  };
  for (const Task& t : tasks) {
    const Task back = io::parse_task(io::serialize_task(t));
    EXPECT_EQ(back.num_processes, t.num_processes) << t.name;
    EXPECT_EQ(back.input.count(0), t.input.count(0)) << t.name;
    EXPECT_EQ(back.input.count(2), t.input.count(2)) << t.name;
    EXPECT_EQ(back.output.count(0), t.output.count(0)) << t.name;
    EXPECT_EQ(back.output.count(2), t.output.count(2)) << t.name;
    EXPECT_TRUE(back.validate().empty()) << t.name;
    EXPECT_EQ(decide_solvability(back).verdict, decide_solvability(t).verdict)
        << t.name;
  }
}

TEST(Io, SerializeIsStable) {
  const std::string once = io::serialize_task(zoo::hourglass());
  const std::string twice = io::serialize_task(io::parse_task(once));
  EXPECT_EQ(once, twice);
}

TEST(Io, DotOutputMentionsEveryVertexAndEdge) {
  const Task t = zoo::hourglass();
  const std::string dot = io::to_dot(*t.pool, t.output, "hourglass");
  EXPECT_NE(dot.find("graph \"hourglass\""), std::string::npos);
  for (VertexId v : t.output.vertex_ids()) {
    EXPECT_NE(dot.find("v" + std::to_string(raw(v)) + " ["), std::string::npos);
  }
  // 16 edges → 16 " -- " connections.
  std::size_t count = 0, pos = 0;
  while ((pos = dot.find(" -- ", pos)) != std::string::npos) {
    ++count;
    pos += 4;
  }
  EXPECT_EQ(count, t.output.count(1));
}

TEST(Io, CommentsAndWhitespaceIgnored) {
  const Task t = io::parse_task(
      "  # leading comment\n\n"
      "task   padded\n"
      "processes 2\n"
      "input P0:0 P1:0   # trailing comment\n"
      "delta P0:0 -> P0:0\n"
      "delta P1:0 -> P1:0\n"
      "delta P0:0 P1:0 -> P0:0 P1:0\n");
  EXPECT_TRUE(t.validate().empty());
}

}  // namespace
}  // namespace trichroma
