// Unit tests for the SDF text format and the CLI expand command.
#include <gtest/gtest.h>

#include <sstream>

#include "cli/cli.hpp"
#include "io/text_format.hpp"
#include "sdf/sdf_format.hpp"
#include "util/error.hpp"

namespace ccs {
namespace {

const char* kConverter =
    "sdf conv\n"
    "actor A 1\n"
    "actor B 2\n"
    "channel A B 3 2\n"
    "channel B A 2 3 6\n";

TEST(SdfFormat, ParsesTheConverter) {
  const SdfGraph sdf = parse_sdf(std::string(kConverter));
  EXPECT_EQ(sdf.name(), "conv");
  EXPECT_EQ(sdf.actor_count(), 2u);
  EXPECT_EQ(sdf.channel_count(), 2u);
  EXPECT_EQ(sdf.channel(1).initial_tokens, 6);
  EXPECT_EQ(sdf.channel(0).token_volume, 1u);
}

TEST(SdfFormat, VolumeAndTokensDefault) {
  const SdfGraph sdf = parse_sdf(
      "actor a 1\nactor b 1\nchannel a b 1 1\nchannel b a 1 1 2 5\n");
  EXPECT_EQ(sdf.channel(0).initial_tokens, 0);
  EXPECT_EQ(sdf.channel(1).token_volume, 5u);
}

TEST(SdfFormat, RoundTrips) {
  const SdfGraph sdf = parse_sdf(std::string(kConverter));
  const SdfGraph back = parse_sdf(serialize_sdf(sdf));
  EXPECT_EQ(back.name(), sdf.name());
  ASSERT_EQ(back.channel_count(), sdf.channel_count());
  for (std::size_t c = 0; c < sdf.channel_count(); ++c) {
    EXPECT_EQ(back.channel(c).from, sdf.channel(c).from);
    EXPECT_EQ(back.channel(c).produce, sdf.channel(c).produce);
    EXPECT_EQ(back.channel(c).consume, sdf.channel(c).consume);
    EXPECT_EQ(back.channel(c).initial_tokens, sdf.channel(c).initial_tokens);
    EXPECT_EQ(back.channel(c).token_volume, sdf.channel(c).token_volume);
  }
}

TEST(SdfFormat, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_sdf("actor a 0\n"), ParseError);
  EXPECT_THROW((void)parse_sdf("actor a 1\nactor a 1\n"), ParseError);
  EXPECT_THROW((void)parse_sdf("channel a b 1 1\n"), ParseError);
  EXPECT_THROW((void)parse_sdf("actor a 1\nchannel a z 1 1\n"), ParseError);
  EXPECT_THROW((void)parse_sdf("actor a 1\nsdf late\n"), ParseError);
  EXPECT_THROW((void)parse_sdf("warp 9\n"), ParseError);
  EXPECT_THROW((void)parse_sdf("actor a 1\nchannel a a 1 1 0 0\n"),
               ParseError);
  // Whole-token numbers, no extra tokens: "zz" used to read as 0 tokens.
  for (const char* text :
       {"actor a 1\nactor b 1\nchannel a b 2 1 zz\n",
        "actor a 1\nactor b 1\nchannel a b 2 1 0 1 extra\n",
        "actor a 1x\n", "actor a 1 extra\n", "sdf s extra\n"}) {
    EXPECT_THROW((void)parse_sdf(text), ParseError) << text;
  }
}

TEST(SdfFormat, ErrorsCarryLineNumbers) {
  try {
    (void)parse_sdf("actor a 1\nchannel a b 1 1\n");
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult cli(const std::vector<std::string>& args,
              const std::string& stdin_text = "") {
  std::istringstream in(stdin_text);
  std::ostringstream out, err;
  const int code = run_cli(args, in, out, err);
  return {code, out.str(), err.str()};
}

TEST(SdfFormat, CliExpandEmitsAParsableCsdfg) {
  const CliResult r = cli({"expand", "-", "--info"}, kConverter);
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("# repetition vector: A=2 B=3"), std::string::npos);
  const Csdfg g = parse_csdfg(r.out);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_TRUE(g.is_legal());
}

TEST(SdfFormat, CliExpandReportsDeadlocks) {
  const CliResult r = cli({"expand", "-"},
                          "actor a 1\nactor b 1\n"
                          "channel a b 1 1\nchannel b a 1 1\n");
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("deadlock"), std::string::npos);
}

TEST(SdfFormat, CliExpandPipesIntoSchedule) {
  // The expand | schedule composition, done in-process.
  const CliResult expand = cli({"expand", "-"}, kConverter);
  ASSERT_EQ(expand.code, 0);
  const CliResult sched = cli(
      {"schedule", "-", "--arch", "ring 4", "--quiet"}, expand.out);
  EXPECT_EQ(sched.code, 0) << sched.err;
  EXPECT_NE(sched.out.find("[valid]"), std::string::npos);
}

}  // namespace
}  // namespace ccs
