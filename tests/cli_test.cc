// hulkv::cli::Parser — the shared flag table behind the bench
// binaries (report::bench_args_or_exit) and the tools — and the command
// lines of the figure benches, the examples, hulkv-analyze and
// hulkv-stats, driven as subprocesses.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "report/report.hpp"
#include "telemetry/json.hpp"

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

  // A value flag never swallows the next flag.
  Argv swallowing({"--count", "--other"});
  EXPECT_FALSE(parser.parse(swallowing.argc(), swallowing.argv()));
  EXPECT_NE(parser.error().find("expects a value"), std::string::npos);

  Argv trailing({"--count=7x"});
  EXPECT_FALSE(parser.parse(trailing.argc(), trailing.argv()));

  // strtoull would wrap "-1" to 2^64-1 and skip the blank in " 5".
  u64 big = 0;
  parser.add_u64("--big", &big, "");
  for (const char* value : {"-1", " 5", "+5"}) {
    Argv signed_value({"--big", value});
    EXPECT_FALSE(parser.parse(signed_value.argc(), signed_value.argv()))
        << value;
    EXPECT_NE(parser.error().find("--big expects"), std::string::npos)
        << parser.error();
    Argv signed_count({std::string("--count=") + value});
    EXPECT_FALSE(parser.parse(signed_count.argc(), signed_count.argv()))
        << value;
  }
  EXPECT_EQ(big, 0u);
}

TEST(CliParser, UnknownFlagPolicy) {
  u32 count = 0;
  cli::Parser parser("t");
  parser.add_u32("--count", &count, "");

  // An unknown flag is a hard error that names it.
  Argv unknown({"--count", "3", "--mystery"});
  EXPECT_FALSE(parser.parse(unknown.argc(), unknown.argv()));
  EXPECT_NE(parser.error().find("--mystery"), std::string::npos);
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
             "--profile"});
  ASSERT_TRUE(parser.parse(args.argc(), args.argv())) << parser.error();
  EXPECT_EQ(options.json_path, "out.json");
  EXPECT_EQ(options.jobs, 3u);
  EXPECT_TRUE(options.telemetry);
  EXPECT_EQ(options.telemetry_dir, "runs2");
  EXPECT_TRUE(options.profile);
  EXPECT_TRUE(options.profile_path.empty());
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
#ifndef HULKV_TOOLS_DIR
#define HULKV_TOOLS_DIR "."
#endif
#ifndef HULKV_SCRIPTS_DIR
#define HULKV_SCRIPTS_DIR "scripts"
#endif

struct Outcome {
  int rc = -1;
  std::string err;  // stderr, merged with stdout when that is kept
};

/// Run `binary` (a path) with `args`; stdout is discarded unless
/// `keep_stdout`.
Outcome run_binary(const std::string& binary, const std::string& args,
                   bool keep_stdout = false) {
  const std::string cmd =
      binary + " " + args + (keep_stdout ? " 2>&1" : " 2>&1 >/dev/null");
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

// memsys_explorer takes [stride_bytes] [--jobs N]; anything else exits 2
// with a message naming the bad argument, before any SoC is built.
TEST(ExampleCli, MemsysExplorerUsageErrorsExitTwoWithMessage) {
  const std::string binary =
      std::string(HULKV_EXAMPLES_DIR) + "/memsys_explorer";
  // (arguments, text the message must name)
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--bogus", "--bogus"},
      {"128 --jobs abc", "--jobs"},
      {"128 --jobs", "--jobs"},
      {"abc", "\"abc\""},
      {"6", "stride_bytes 6"},
      {"40000000", "stride_bytes 40000000"},
      {"128 256", "\"256\""},
  };
  for (const auto& [args, names] : cases) {
    const Outcome o = run_binary(binary, args);
    EXPECT_EQ(o.rc, 2) << args << "\n" << o.err;
    EXPECT_NE(o.err.find(names), std::string::npos) << args << "\n" << o.err;
    EXPECT_NE(o.err.find("usage: memsys_explorer"), std::string::npos)
        << args << "\n" << o.err;
  }
}

// hulkv-analyze checks --base and --profile before it reads an image or
// runs the corpus: a bad value exits 2 with a message naming it.
TEST(ToolCli, AnalyzeUsageErrorsExitTwoWithMessage) {
  const std::string binary = std::string(HULKV_TOOLS_DIR) + "/hulkv-analyze";
  // (arguments, text the message must name)
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--image /dev/null --base xyz", "--base expects"},
      {"--image /dev/null --base 0x10zz", "\"0x10zz\""},
      {"--image /dev/null --base -1", "\"-1\""},
      {"--image /dev/null --base ' 16'", "\" 16\""},
      {"--corpus --profile bogus", "--profile expects"},
      {"--image /dev/null --profile host --bogus", "\"--bogus\""},
  };
  for (const auto& [args, names] : cases) {
    const Outcome o = run_binary(binary, args);
    EXPECT_EQ(o.rc, 2) << args << "\n" << o.err;
    EXPECT_NE(o.err.find(names), std::string::npos) << args << "\n" << o.err;
    EXPECT_NE(o.err.find("usage: hulkv-analyze"), std::string::npos)
        << args << "\n" << o.err;
  }
}

// A file name reaches --json output as a JSON string: a tab in it is
// escaped, so a strict reader takes the output back.
TEST(ToolCli, AnalyzeJsonEscapesControlCharactersInTheImageName) {
  const TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  const std::string image = dir.path + "/tab\tname.bin";
  {
    std::ofstream out(image, std::ios::binary);
    const unsigned char ecall[4] = {0x73, 0x00, 0x00, 0x00};
    out.write(reinterpret_cast<const char*>(ecall), sizeof(ecall));
  }
  const Outcome o =
      run_binary(std::string(HULKV_TOOLS_DIR) + "/hulkv-analyze",
                 "--image '" + image + "' --json", /*keep_stdout=*/true);
  ASSERT_EQ(o.rc, 0) << o.err;
  EXPECT_EQ(o.err.find('\t'), std::string::npos) << o.err;
  const telemetry::json::Value doc = telemetry::json::parse(o.err);
  const telemetry::json::Value* corpus = doc.find("corpus");
  ASSERT_NE(corpus, nullptr);
  ASSERT_EQ(corpus->as_array().size(), 1u);
  EXPECT_EQ(corpus->as_array()[0].find("name")->as_string(), image);
}

// Per-program mode prints the program's name, then its report, and ends
// in a newline; a program without error-severity findings exits 0.
TEST(ToolCli, AnalyzeProgramPrintsItsReportAndExitsZero) {
  const Outcome o =
      run_binary(std::string(HULKV_TOOLS_DIR) + "/hulkv-analyze",
                 "cluster/matmul.int8", /*keep_stdout=*/true);
  EXPECT_EQ(o.rc, 0) << o.err;
  EXPECT_EQ(o.err,
            "== cluster/matmul.int8 ==\n"
            "note[dead-write] pc=0x44: register a0 is overwritten at "
            "pc=0x4c before it is ever read\n"
            "84 instructions, 14 blocks, 1 hardware loops: 0 error(s), "
            "0 warning(s)\n");
}

// An image with an error-severity finding exits 1 and names it.
TEST(ToolCli, AnalyzeImageWithAnErrorExitsOne) {
  const TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  const std::string image = dir.path + "/illegal.bin";
  {
    std::ofstream out(image, std::ios::binary);
    const unsigned char word[4] = {0xff, 0xff, 0xff, 0xff};
    out.write(reinterpret_cast<const char*>(word), sizeof(word));
  }
  const Outcome o =
      run_binary(std::string(HULKV_TOOLS_DIR) + "/hulkv-analyze",
                 "--image " + image, /*keep_stdout=*/true);
  EXPECT_EQ(o.rc, 1) << o.err;
  EXPECT_NE(o.err.find("error[illegal-instruction] pc=0x0"),
            std::string::npos)
      << o.err;
}

// The --corpus table: every row is as wide as the header row, so each
// number sits under its column name whatever the program name's length.
TEST(ToolCli, AnalyzeCorpusTableRowsAreAsWideAsTheHeader) {
  const Outcome o =
      run_binary(std::string(HULKV_TOOLS_DIR) + "/hulkv-analyze",
                 "--corpus", /*keep_stdout=*/true);
  EXPECT_EQ(o.rc, 0) << o.err;
  std::vector<std::string> lines;
  std::istringstream in(o.err);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_FALSE(lines.empty());
  // The last line counts the programs: one table row each follows the
  // header.
  const size_t programs = std::stoul(lines.back());
  ASSERT_GT(programs, 0u);
  ASSERT_GT(lines.size(), programs + 1) << o.err;
  const std::string& header = lines[0];
  ASSERT_EQ(header.rfind("program", 0), 0u) << header;
  for (size_t i = 1; i <= programs; ++i) {
    EXPECT_EQ(lines[i].size(), header.size())
        << "\n" << header << "\n" << lines[i];
  }
}

// A program name the corpus does not list is a usage error.
TEST(ToolCli, AnalyzeUnknownProgramExitsTwo) {
  const Outcome o = run_binary(
      std::string(HULKV_TOOLS_DIR) + "/hulkv-analyze", "cluster/nosuch");
  EXPECT_EQ(o.rc, 2) << o.err;
  EXPECT_NE(o.err.find("unknown program 'cluster/nosuch'"),
            std::string::npos)
      << o.err;
}

// hulkv-stats parses its flags through cli::Parser: a malformed or
// out-of-range value, an unknown flag or a wrong file count exits 2
// with a message naming it, before any file is read or socket opened.
// The live cases name a socket that does not exist, so that a tool
// which took a bad value anyway fails to connect instead of waiting.
TEST(ToolCli, StatsUsageErrorsExitTwoWithMessage) {
  const std::string binary = std::string(HULKV_TOOLS_DIR) + "/hulkv-stats";
  const std::string sock = "--socket /nonexistent/hulkv.sock";
  // (arguments, text the message must name)
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"tail " + sock + " --interval-ms abc", "--interval-ms expects"},
      {"tail " + sock + " --interval-ms 5x", "\"5x\""},
      {"top " + sock + " --count -1", "--count expects"},
      {"scrape " + sock + " --port abc", "--port expects"},
      {"scrape " + sock + " --port 70000", "--port 70000"},
      {"trace", "--socket PATH or --port N"},
      {"scrape " + sock + " runs.jsonl", "\"runs.jsonl\""},
      {"scrape " + sock + " --metric x", "\"--metric\""},
      {"list", "one or more manifest files"},
      {"agg a.jsonl b.jsonl", "exactly one manifest file"},
      {"agg a.jsonl --metric", "--metric expects a value"},
      {"check a.jsonl --bogus x", "\"--bogus\""},
      {"diff a.jsonl b.jsonl", "unknown command 'diff'"},
      {"trend BENCH_simperf.json", "unknown command 'trend'"},
  };
  for (const auto& [args, names] : cases) {
    const Outcome o = run_binary(binary, args);
    EXPECT_EQ(o.rc, 2) << args << "\n" << o.err;
    EXPECT_NE(o.err.find(names), std::string::npos) << args << "\n" << o.err;
    EXPECT_NE(o.err.find("usage: hulkv-stats"), std::string::npos)
        << args << "\n" << o.err;
  }
}

// The offline commands on the manifest a bench writes: list and agg
// read it, check finds it valid against the schema, and check fails on
// a copy that lacks a required member.
TEST(ToolCli, StatsOfflineCommandsReadABenchManifest) {
  const std::string stats = std::string(HULKV_TOOLS_DIR) + "/hulkv-stats";
  const std::string schema =
      std::string(" --schema ") + HULKV_SCRIPTS_DIR + "/manifest_schema.json";
  const TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  const Outcome bench = run_bench("table2_power", "--telemetry=" + dir.path);
  ASSERT_EQ(bench.rc, 0) << bench.err;
  const std::string manifest = dir.path + "/table2_power.jsonl";
  ASSERT_TRUE(dir.has("table2_power.jsonl"));

  Outcome o = run_binary(stats, "list " + manifest, true);
  EXPECT_EQ(o.rc, 0) << o.err;
  EXPECT_NE(o.err.find("table2_power  kind=bench"), std::string::npos)
      << o.err;
  o = run_binary(stats, "agg " + manifest, true);
  EXPECT_EQ(o.rc, 0) << o.err;
  EXPECT_NE(o.err.find("total_max_power_mw"), std::string::npos) << o.err;
  o = run_binary(stats, "check " + manifest + schema, true);
  EXPECT_EQ(o.rc, 0) << o.err;
  EXPECT_NE(o.err.find("1 run, 0 violations"), std::string::npos) << o.err;

  // The same run without its required "timestamp_ns" member.
  std::ifstream in(manifest);
  std::stringstream text;
  text << in.rdbuf();
  std::string line = text.str();
  const size_t at = line.find("\"timestamp_ns\":");
  ASSERT_NE(at, std::string::npos) << line;
  line.erase(at, line.find(',', at) + 1 - at);
  const std::string broken = dir.path + "/broken.jsonl";
  std::ofstream(broken) << line;
  o = run_binary(stats, "check " + broken + schema, true);
  EXPECT_EQ(o.rc, 1) << o.err;
  EXPECT_NE(o.err.find("missing required member \"timestamp_ns\""),
            std::string::npos)
      << o.err;
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
