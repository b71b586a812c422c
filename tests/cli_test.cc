// hulkv::cli::Parser — the shared flag table behind the bench
// binaries (report::bench_args_or_exit) and the serve tools — and the
// figure benches' command lines, driven as subprocesses.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "report/report.hpp"

namespace {

using namespace hulkv;

/// argv helper: materialize a writable char** from string literals.
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    ptrs.push_back(const_cast<char*>("prog"));
    for (std::string& s : storage) ptrs.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }

  std::vector<std::string> storage;
  std::vector<char*> ptrs;
};

TEST(CliParser, ParsesBothFlagSpellings) {
  std::string name;
  u32 count = 0;
  u64 big = 0;
  double rate = 0.0;
  bool verbose = false;
  cli::Parser parser("t");
  parser.add_string("--name", &name, "")
      .add_u32("--count", &count, "")
      .add_u64("--big", &big, "")
      .add_double("--rate", &rate, "")
      .add_flag("--verbose", &verbose, "");

  Argv args({"--name", "alpha", "--count=7", "--big",
             "12884901888", "--rate=2.5", "--verbose"});
  ASSERT_TRUE(parser.parse(args.argc(), args.argv())) << parser.error();
  EXPECT_EQ(name, "alpha");
  EXPECT_EQ(count, 7u);
  EXPECT_EQ(big, 12884901888ull);
  EXPECT_DOUBLE_EQ(rate, 2.5);
  EXPECT_TRUE(verbose);
}

TEST(CliParser, OptionalValueNeverConsumesNextArgument) {
  bool present = false;
  std::string value;
  bool other = false;
  cli::Parser parser("t");
  parser.add_optional_value("--profile", &present, &value, "")
      .add_flag("--other", &other, "");

  // Bare form: the next flag must still be parsed as a flag.
  Argv bare({"--profile", "--other"});
  ASSERT_TRUE(parser.parse(bare.argc(), bare.argv()));
  EXPECT_TRUE(present);
  EXPECT_TRUE(value.empty());
  EXPECT_TRUE(other);

  // `=` form carries the value.
  present = false;
  Argv eq({"--profile=out/prof"});
  ASSERT_TRUE(parser.parse(eq.argc(), eq.argv()));
  EXPECT_TRUE(present);
  EXPECT_EQ(value, "out/prof");
}

TEST(CliParser, RejectsBadNumbersAndMissingValues) {
  u32 count = 0;
  cli::Parser parser("t");
  parser.add_u32("--count", &count, "");

  Argv bad({"--count", "seven"});
  EXPECT_FALSE(parser.parse(bad.argc(), bad.argv()));
  EXPECT_FALSE(parser.error().empty());

  Argv missing({"--count"});
  EXPECT_FALSE(parser.parse(missing.argc(), missing.argv()));
  EXPECT_FALSE(parser.error().empty());

  // A value flag never swallows the next flag, under either policy.
  Argv swallowing({"--count", "--other"});
  EXPECT_FALSE(parser.parse(swallowing.argc(), swallowing.argv(),
                            cli::Parser::OnUnknown::kIgnore));
  EXPECT_NE(parser.error().find("expects a value"), std::string::npos);

  Argv trailing({"--count=7x"});
  EXPECT_FALSE(parser.parse(trailing.argc(), trailing.argv()));
}

TEST(CliParser, UnknownFlagPolicy) {
  u32 count = 0;
  cli::Parser parser("t");
  parser.add_u32("--count", &count, "");

  // Tools: unknown flag is a hard error.
  Argv unknown({"--count", "3", "--mystery"});
  EXPECT_FALSE(
      parser.parse(unknown.argc(), unknown.argv(), cli::Parser::OnUnknown::kError));
  EXPECT_NE(parser.error().find("--mystery"), std::string::npos);

  // Benches: unknown flags belong to a wrapped tool and are ignored,
  // and known flags around them still apply.
  Argv ignored({"--mystery", "--count", "5"});
  ASSERT_TRUE(parser.parse(ignored.argc(), ignored.argv(),
                           cli::Parser::OnUnknown::kIgnore));
  EXPECT_EQ(count, 5u);
}

TEST(CliParser, UsageListsEveryFlag) {
  u32 count = 0;
  bool quick = false;
  cli::Parser parser("mytool", "does a thing");
  parser.add_u32("--count", &count, "how many")
      .add_flag("--quick", &quick, "skip the slow part");
  const std::string usage = parser.usage();
  EXPECT_NE(usage.find("mytool"), std::string::npos);
  EXPECT_NE(usage.find("does a thing"), std::string::npos);
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("how many"), std::string::npos);
  EXPECT_NE(usage.find("--quick"), std::string::npos);
}

TEST(CliBench, BenchFlagParserKeepsHistoricalSemantics) {
  report::BenchOptions options;
  cli::Parser parser = report::bench_flag_parser("bench", &options);
  Argv args({"--json", "out.json", "--jobs=3", "--telemetry=runs2",
             "--profile",
             "--benchmark_filter=all"});  // wrapped-tool flag: ignored
  ASSERT_TRUE(parser.parse(args.argc(), args.argv(),
                           cli::Parser::OnUnknown::kIgnore))
      << parser.error();
  EXPECT_EQ(options.json_path, "out.json");
  EXPECT_EQ(options.jobs, 3u);
  EXPECT_TRUE(options.telemetry);
  EXPECT_EQ(options.telemetry_dir, "runs2");
  EXPECT_TRUE(options.profile);
  EXPECT_TRUE(options.profile_path.empty());
}

TEST(CliBench, ParseBenchArgsMatchesParser) {
  Argv args({"--jobs", "2", "--telemetry"});
  const report::BenchOptions options =
      report::parse_bench_args(args.argc(), args.argv());
  EXPECT_EQ(options.jobs, 2u);
  EXPECT_TRUE(options.telemetry);
  EXPECT_TRUE(options.telemetry_dir.empty());
}

// ---------------------------------------------------------------------
// Figure-bench command lines, each case at the default --jobs (a test
// pinned to --jobs 1 would hide a sweep bench aborting under --profile).
// ---------------------------------------------------------------------

#ifndef HULKV_BENCH_DIR
#define HULKV_BENCH_DIR "."
#endif
#ifndef HULKV_EXAMPLES_DIR
#define HULKV_EXAMPLES_DIR "."
#endif

struct Outcome {
  int rc = -1;
  std::string err;  // stderr; stdout is discarded
};

/// Run `binary` (a path) with `args`; stdout is discarded.
Outcome run_binary(const std::string& binary, const std::string& args) {
  const std::string cmd = binary + " " + args + " 2>&1 >/dev/null";
  Outcome out;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return out;
  char buf[4096];
  size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) out.err.append(buf, n);
  const int status = pclose(pipe);
  out.rc = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  return out;
}

Outcome run_bench(const std::string& bench, const std::string& args) {
  return run_binary(std::string(HULKV_BENCH_DIR) + "/" + bench, args);
}

/// A scratch directory removed (with its files) at scope exit.
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/hulkv_bench_cli.XXXXXX";
    path = mkdtemp(tmpl) != nullptr ? tmpl : "";
  }
  ~TempDir() {
    if (!path.empty()) std::filesystem::remove_all(path);
  }
  bool has(const std::string& file) const {
    return std::filesystem::exists(path + "/" + file);
  }
  std::string path;
};

class FigureBenchCli : public ::testing::TestWithParam<const char*> {};

TEST_P(FigureBenchCli, UsageErrorsExitTwoWithMessage) {
  const std::string bench = GetParam();
  // (arguments, text the message must name)
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--jobs abc", "--jobs"},
      {"--bogus", "--bogus"},
      {"--json", "--json"},
      {"--json --jobs 2", "--json"},
      {"--profile --jobs 2", "--jobs 1"},
  };
  for (const auto& [args, names] : cases) {
    const Outcome o = run_bench(bench, args);
    EXPECT_EQ(o.rc, 2) << bench << " " << args << "\n" << o.err;
    EXPECT_NE(o.err.find(names), std::string::npos)
        << bench << " " << args << "\n" << o.err;
    EXPECT_NE(o.err.find("usage: " + bench), std::string::npos)
        << bench << " " << args << "\n" << o.err;
  }
}

TEST_P(FigureBenchCli, TraceIsWrittenOrRefused) {
  const std::string bench = GetParam();
  const TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  const Outcome o = run_bench(bench, "--trace=" + dir.path + "/t.json");
  if (bench == "fig6_speedup") {  // the one figure bench that traces
    EXPECT_EQ(o.rc, 0) << o.err;
    EXPECT_TRUE(dir.has("t.json"));
  } else {
    EXPECT_EQ(o.rc, 2) << o.err;
    EXPECT_NE(o.err.find("--trace"), std::string::npos) << o.err;
    EXPECT_FALSE(dir.has("t.json"));
  }
}

TEST_P(FigureBenchCli, ProfileWritesFilesAtDefaultJobs) {
  const std::string bench = GetParam();
  const TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  const Outcome o = run_bench(bench, "--profile=" + dir.path + "/p");
  EXPECT_EQ(o.rc, 0) << o.err;
  EXPECT_TRUE(dir.has("p.folded"));
  EXPECT_TRUE(dir.has("p.annotated.txt"));
}

INSTANTIATE_TEST_SUITE_P(
    FigureBenches, FigureBenchCli,
    ::testing::Values("fig6_speedup", "fig7_llc_sweep", "fig8_llc_effect",
                      "fig9_energy_eff", "table1_comparison", "table2_power",
                      "ablation_memsys"),
    [](const ::testing::TestParamInfo<const char*>& bench) {
      return std::string(bench.param);
    });

// offload_matmul parses the shared bench flags too: CLI errors exit 2.
TEST(ExampleCli, OffloadMatmulUsageErrorsExitTwoWithMessage) {
  const std::string binary =
      std::string(HULKV_EXAMPLES_DIR) + "/offload_matmul";
  // (arguments, text the message must name)
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--jobs abc", "--jobs"},
      {"--bogus", "--bogus"},
      {"--profile --jobs 2", "--jobs 1"},
  };
  for (const auto& [args, names] : cases) {
    const Outcome o = run_binary(binary, args);
    EXPECT_EQ(o.rc, 2) << args << "\n" << o.err;
    EXPECT_NE(o.err.find(names), std::string::npos) << args << "\n" << o.err;
  }
}

TEST(ExampleCli, OffloadMatmulListedFlagsWriteTheirFiles) {
  const std::string binary =
      std::string(HULKV_EXAMPLES_DIR) + "/offload_matmul";
  const TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  // (arguments, files they must write)
  const std::vector<std::pair<std::string, std::vector<std::string>>>
      cases = {
          {"--profile=" + dir.path + "/p", {"p.folded", "p.annotated.txt"}},
          {"--jobs 2 --json " + dir.path + "/j.json", {"j.json"}},
          {"--telemetry=" + dir.path, {"offload_matmul.jsonl"}},
      };
  for (const auto& [args, files] : cases) {
    const Outcome o = run_binary(binary, args);
    EXPECT_EQ(o.rc, 0) << args << "\n" << o.err;
    for (const std::string& file : files) {
      EXPECT_TRUE(dir.has(file)) << args << " did not write " << file;
    }
  }
}

}  // namespace
