// FlagParser: the declarative argv parser shared by every rls subcommand.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cli/flags.hpp"
#include "core/procedure2.hpp"
#include "fault/seq_fsim.hpp"
#include "svc/request.hpp"

namespace rls::cli {
namespace {

std::vector<std::string> parse(const FlagParser& fp,
                               std::vector<const char*> argv,
                               int begin = 0) {
  return fp.parse(static_cast<int>(argv.size()), argv.data(), begin);
}

TEST(CliFlags, EqualsAndSpaceFormsBothWork) {
  FlagParser fp;
  std::uint64_t threads = 0;
  std::string trace;
  fp.add_uint("threads", &threads);
  fp.add_string("trace", &trace);

  auto pos = parse(fp, {"--threads=4", "--trace", "out.jsonl", "s298"});
  EXPECT_EQ(threads, 4u);
  EXPECT_EQ(trace, "out.jsonl");
  ASSERT_EQ(pos.size(), 1u);
  EXPECT_EQ(pos[0], "s298");
}

TEST(CliFlags, BooleanFormsAndExplicitValues) {
  FlagParser fp;
  bool progress = false;
  bool desc = true;
  fp.add_bool("progress", &progress);
  fp.add_bool("d1-desc", &desc);

  auto pos = parse(fp, {"--progress", "--d1-desc=0"});
  EXPECT_TRUE(progress);
  EXPECT_FALSE(desc);
  EXPECT_TRUE(pos.empty());

  progress = false;
  parse(fp, {"--progress=true"});
  EXPECT_TRUE(progress);
}

TEST(CliFlags, PositionalsKeepOrderAndInterleave) {
  FlagParser fp;
  std::uint64_t seed = 0;
  fp.add_uint("seed", &seed);
  auto pos = parse(fp, {"run", "--seed", "7", "s5378", "extra"});
  EXPECT_EQ(seed, 7u);
  ASSERT_EQ(pos.size(), 3u);
  EXPECT_EQ(pos[0], "run");
  EXPECT_EQ(pos[1], "s5378");
  EXPECT_EQ(pos[2], "extra");
}

TEST(CliFlags, DoubleDashEndsFlagParsing) {
  FlagParser fp;
  bool flag = false;
  fp.add_bool("flag", &flag);
  auto pos = parse(fp, {"--flag", "--", "--flag", "--"});
  EXPECT_TRUE(flag);
  // Everything after the first "--" is positional, including a second "--".
  ASSERT_EQ(pos.size(), 2u);
  EXPECT_EQ(pos[0], "--flag");
  EXPECT_EQ(pos[1], "--");
}

TEST(CliFlags, BeginSkipsProgramAndSubcommand) {
  FlagParser fp;
  bool v = false;
  fp.add_bool("v", &v);
  auto pos = parse(fp, {"rls", "run", "--v", "s27"}, 2);
  EXPECT_TRUE(v);
  ASSERT_EQ(pos.size(), 1u);
  EXPECT_EQ(pos[0], "s27");
}

TEST(CliFlags, ErrorsNameTheOffendingArgument) {
  FlagParser fp;
  std::uint64_t n = 0;
  std::string s;
  fp.add_uint("n", &n);
  fp.add_string("s", &s);

  EXPECT_THROW(parse(fp, {"--bogus"}), FlagError);
  EXPECT_THROW(parse(fp, {"--n"}), FlagError);        // missing value
  EXPECT_THROW(parse(fp, {"--n=abc"}), FlagError);    // malformed number
  EXPECT_THROW(parse(fp, {"--n", "12x"}), FlagError); // trailing junk
  EXPECT_THROW(parse(fp, {"--s"}), FlagError);        // missing value
  try {
    parse(fp, {"--bogus"});
    FAIL() << "expected FlagError";
  } catch (const FlagError& e) {
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

TEST(CliFlags, UintRejectsSignsWhitespaceAndOverflow) {
  // strtoull would happily wrap "-5" to 2^64-5 and skip leading
  // whitespace; parse_uint (and therefore every kUint flag) must not.
  FlagParser fp;
  std::uint64_t n = 7;
  fp.add_uint("n", &n);
  EXPECT_THROW(parse(fp, {"--n=-5"}), FlagError);
  EXPECT_THROW(parse(fp, {"--n=+5"}), FlagError);
  EXPECT_THROW(parse(fp, {"--n= 5"}), FlagError);
  EXPECT_THROW(parse(fp, {"--n=5 "}), FlagError);
  EXPECT_THROW(parse(fp, {"--n=0x10"}), FlagError);
  EXPECT_THROW(parse(fp, {"--n="}), FlagError);
  // One past UINT64_MAX (18446744073709551615).
  EXPECT_THROW(parse(fp, {"--n=18446744073709551616"}), FlagError);
  EXPECT_EQ(n, 7u);  // untouched by every rejected parse
  auto pos = parse(fp, {"--n=18446744073709551615"});
  EXPECT_EQ(n, UINT64_MAX);
}

TEST(CliFlags, ParseUintNamesTheOffenderAndRoundTrips) {
  EXPECT_EQ(parse_uint("--seed", "0"), 0u);
  EXPECT_EQ(parse_uint("--seed", "42"), 42u);
  EXPECT_EQ(parse_uint("--seed", "18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1e3", "abc",
                          "18446744073709551616", "99999999999999999999"}) {
    try {
      (void)parse_uint("cop <n>", bad);
      FAIL() << "expected FlagError for '" << bad << "'";
    } catch (const FlagError& e) {
      EXPECT_NE(std::string(e.what()).find("cop <n>"), std::string::npos)
          << e.what();
    }
  }
}

TEST(CliFlags, DoubleFlagRejectsLeadingWhitespace) {
  FlagParser fp;
  double t = 0.5;
  fp.add_double("threshold", &t);
  EXPECT_THROW(parse(fp, {"--threshold= 0.25"}), FlagError);
  EXPECT_DOUBLE_EQ(t, 0.5);
}

TEST(CliFlags, DoubleFlagsParseBothForms) {
  FlagParser fp;
  double threshold = 0.5;
  fp.add_double("threshold", &threshold, "escape probability cutoff");
  const char* argv1[] = {"prog", "--threshold=0.25"};
  (void)fp.parse(2, argv1);
  EXPECT_DOUBLE_EQ(threshold, 0.25);
  const char* argv2[] = {"prog", "--threshold", "1e-3"};
  (void)fp.parse(3, argv2);
  EXPECT_DOUBLE_EQ(threshold, 1e-3);
}

TEST(CliFlags, DoubleFlagRejectsNonNumbers) {
  FlagParser fp;
  double threshold = 0.5;
  fp.add_double("threshold", &threshold);
  const char* argv[] = {"prog", "--threshold=half"};
  try {
    (void)fp.parse(2, argv);
    FAIL() << "expected FlagError";
  } catch (const FlagError& e) {
    EXPECT_NE(std::string(e.what()).find("half"), std::string::npos);
  }
  EXPECT_DOUBLE_EQ(threshold, 0.5);  // untouched on error
}

TEST(CliFlags, HelpListsEveryRegisteredFlag) {
  FlagParser fp;
  bool b = false;
  std::uint64_t u = 0;
  fp.add_bool("progress", &b, "live status lines");
  fp.add_uint("threads", &u, "worker threads");
  const std::string help = fp.help();
  EXPECT_NE(help.find("--progress"), std::string::npos);
  EXPECT_NE(help.find("--threads"), std::string::npos);
  EXPECT_NE(help.find("live status lines"), std::string::npos);
}

TEST(CliFlags, EngineFlagParsesAllThreeEnginesAndNamesValidSet) {
  // The CLI maps --engine through fault::parse_engine and reports the
  // full valid set on mismatch (the same construction rls_cli uses).
  FlagParser fp;
  std::string engine = fault::engine_name(core::Procedure2Options{}.engine);
  fp.add_string("engine", &engine,
                engine + " (default); one of " + fault::engine_choices());
  const std::string help = fp.help();
  EXPECT_NE(help.find("conediff"), std::string::npos);
  EXPECT_NE(help.find("fullsweep"), std::string::npos);
  EXPECT_NE(help.find("packed"), std::string::npos);

  for (const auto& [name, want] :
       {std::pair<const char*, fault::Engine>{"conediff",
                                              fault::Engine::kConeDiff},
        {"fullsweep", fault::Engine::kFullSweep},
        {"packed", fault::Engine::kPacked}}) {
    parse(fp, {(std::string("--engine=") + name).c_str()});
    const std::optional<fault::Engine> parsed = fault::parse_engine(engine);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, want) << name;
    EXPECT_STREQ(fault::engine_name(*parsed), name);
  }

  parse(fp, {"--engine=bogus"});
  ASSERT_FALSE(fault::parse_engine(engine).has_value());
  const FlagError err("--engine expects one of " +
                      std::string(fault::engine_choices()) + ", got '" +
                      engine + "'");
  const std::string what = err.what();
  EXPECT_EQ(what.find('\n'), std::string::npos);  // one-line error
  EXPECT_NE(what.find("conediff"), std::string::npos);
  EXPECT_NE(what.find("fullsweep"), std::string::npos);
  EXPECT_NE(what.find("packed"), std::string::npos);
  EXPECT_NE(what.find("bogus"), std::string::npos);
}

#ifdef RLS_CLI_PATH
TEST(CliFlags, RunWithoutEngineResolvesToTheServiceDefault) {
  // `rls run` without --engine and a svc request without "engine" must
  // pick the same engine: the CLI derives its default from the library's.
  std::FILE* p = ::popen(RLS_CLI_PATH " run s27 --dump-request", "r");
  ASSERT_NE(p, nullptr);
  std::string line;
  char buf[512];
  while (std::fgets(buf, sizeof buf, p) != nullptr) line += buf;
  ASSERT_EQ(::pclose(p), 0) << line;
  ASSERT_FALSE(line.empty());
  if (line.back() == '\n') line.pop_back();
  const svc::CampaignRequest cli = svc::parse_request(line, "rls run");
  const svc::CampaignRequest bare =
      svc::parse_request(R"({"schema":2,"circuit":"s27"})", "bare");
  EXPECT_EQ(cli.options.p2.engine, bare.options.p2.engine);
  EXPECT_EQ(cli.options.p2.engine, core::Procedure2Options{}.engine);
}
#endif  // RLS_CLI_PATH

}  // namespace
}  // namespace rls::cli
