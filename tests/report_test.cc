// SocReport: unified counter snapshots and deltas.
#include <gtest/gtest.h>

#include "core/report.hpp"
#include "isa/assembler.hpp"
#include "kernels/kernel.hpp"

namespace hulkv::core {
namespace {

using isa::Assembler;
using namespace isa::reg;

SocConfig fast_config() {
  SocConfig cfg;
  cfg.main_memory = MainMemoryKind::kDdr4;
  return cfg;
}

TEST(SocReport, CapturesAllBlocks) {
  HulkVSoc soc(fast_config());
  const SocReport report = SocReport::capture(soc);
  const auto groups = report.groups();
  // At minimum the always-present stat groups show up.
  for (const char* name : {"host_l1i", "host_l1d", "tcdm", "cluster_dma",
                           "udma", "soc_bus", "llc", "ddr4"}) {
    EXPECT_NE(std::find(groups.begin(), groups.end(), name), groups.end())
        << name;
  }
}

TEST(SocReport, DeltaIsolatesOnePhase) {
  HulkVSoc soc(fast_config());
  Assembler a(layout::kHostCodeBase, true);
  a.li(t0, layout::kSharedBase);
  a.lw(t1, 0, t0);
  a.lw(t2, 64, t0);
  a.li(a7, 93);
  a.li(a0, 0);
  a.ecall();
  const auto program = a.assemble();

  kernels::run_host_program(soc, program, {});
  const SocReport before = SocReport::capture(soc);
  kernels::run_host_program(soc, program, {});
  const SocReport after = SocReport::capture(soc);
  const SocReport delta = after.delta_since(before);

  // Second run: the two data loads hit the warm L1 (2 hits, 0 misses).
  EXPECT_EQ(delta.get("host_l1d", "reads"), 2u);
  EXPECT_EQ(delta.get("host_l1d", "misses"), 0u);
  EXPECT_EQ(delta.get("host_l1d", "hits"), 2u);
  // Unknown counters read as zero.
  EXPECT_EQ(delta.get("nope", "nothing"), 0u);
}

TEST(SocReport, RenderSkipsZeroCounters) {
  HulkVSoc soc(fast_config());
  const std::string text = SocReport::capture(soc).to_string();
  EXPECT_EQ(text.find(" = 0\n"), std::string::npos);
}

}  // namespace
}  // namespace hulkv::core

// ---------------------------------------------------------------------
// hulkv::report: the bench metrics/tables writer (text + JSON from the
// same Value cells).
// ---------------------------------------------------------------------

#include <cmath>
#include <vector>

#include "report/report.hpp"

namespace hulkv::report {
namespace {

TEST(ReportValue, TextAndJsonRenderTheSameDigits) {
  EXPECT_EQ(Value::integer(-42).to_text(), "-42");
  EXPECT_EQ(Value::integer(-42).to_json(), "-42");
  EXPECT_EQ(Value::uinteger(18446744073709551615ull).to_text(),
            "18446744073709551615");
  const Value pi = Value::number(3.14159, 3);
  EXPECT_EQ(pi.to_text(), "3.142");
  EXPECT_EQ(pi.to_json(), "3.142");
  const Value zero_places = Value::number(47.0, 0);
  EXPECT_EQ(zero_places.to_text(), zero_places.to_json());
}

TEST(ReportValue, TextKindQuotesOnlyInJson) {
  const Value v = Value::text("hello \"world\"");
  EXPECT_EQ(v.to_text(), "hello \"world\"");
  EXPECT_EQ(v.to_json(), "\"hello \\\"world\\\"\"");
  EXPECT_FALSE(v.is_numeric());
}

TEST(ReportValue, NonFiniteBecomesNullInJson) {
  const Value nan = Value::number(std::nan(""), 2);
  EXPECT_EQ(nan.to_text(), "-");
  EXPECT_EQ(nan.to_json(), "null");
}

TEST(ReportTable, RendersAlignedTextAndRejectsWidthMismatch) {
  Table table("demo", {"name", "cycles"});
  table.add_row({Value::text("a"), Value::uinteger(12)});
  table.add_row({Value::text("bb"), Value::uinteger(3456)});
  const std::string text = table.to_text();
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("cycles"), std::string::npos);
  EXPECT_NE(text.find("3456"), std::string::npos);
  EXPECT_THROW(table.add_row({Value::text("short")}), SimError);
}

TEST(ReportMetrics, JsonEmbedsExactTextNumbers) {
  MetricsReport rep("demo_bench");
  rep.add_metric("speedup", Value::number(12.3456, 1), "x");
  rep.add_metric("cycles", Value::uinteger(987654321));
  rep.add_note("a note");
  Table& t = rep.add_table("t", {"k", "v"});
  t.add_row({Value::text("row"), Value::number(0.125, 2)});

  ASSERT_NE(rep.metric("speedup"), nullptr);
  EXPECT_EQ(rep.metric_text("speedup"), "12.3");
  EXPECT_EQ(rep.metric_text("missing"), "?");

  const std::string text = rep.to_text();
  const std::string json = rep.to_json();
  // The headline digits are identical in both renderings.
  for (const char* digits : {"12.3", "987654321", "0.12"}) {
    EXPECT_NE(text.find(digits), std::string::npos) << digits;
    EXPECT_NE(json.find(digits), std::string::npos) << digits;
  }
  EXPECT_NE(json.find("\"name\":\"demo_bench\""), std::string::npos);
  EXPECT_NE(json.find("\"unit\":\"x\""), std::string::npos);
}

TEST(ReportMetrics, TableReferencesSurviveLaterAddTable) {
  MetricsReport rep("demo");
  Table& first = rep.add_table("one", {"a"});
  for (int i = 0; i < 50; ++i) rep.add_table("more", {"b"});
  first.add_row({Value::integer(7)});  // must not be dangling
  EXPECT_EQ(rep.tables().front().rows().size(), 1u);
}

/// The shared bench flags as the benches parse them, with unknown
/// flags (a wrapped tool's) ignored.
BenchOptions parse(std::vector<const char*> argv) {
  BenchOptions options;
  cli::Parser parser = bench_flag_parser("bench", &options);
  EXPECT_TRUE(parser.parse(static_cast<int>(argv.size()),
                           const_cast<char**>(argv.data()),
                           cli::Parser::OnUnknown::kIgnore))
      << parser.error();
  return options;
}

TEST(ReportArgs, ParsesJsonAndTraceFlagsBothSpellings) {
  const BenchOptions a = parse({"bench", "--json", "out.json",
                                "--trace=t.json", "--benchmark_filter=foo"});
  EXPECT_EQ(a.json_path, "out.json");
  EXPECT_EQ(a.trace_path, "t.json");

  const BenchOptions b = parse({"bench", "--json=x.json"});
  EXPECT_EQ(b.json_path, "x.json");
  EXPECT_TRUE(b.trace_path.empty());
}

TEST(ReportArgs, ParsesTelemetryFlagBothSpellings) {
  // Bare form: enabled, default directory (empty = "runs").
  const BenchOptions a = parse({"bench", "--telemetry"});
  EXPECT_TRUE(a.telemetry);
  EXPECT_TRUE(a.telemetry_dir.empty());

  // = form carries the output directory.
  const BenchOptions b = parse({"bench", "--telemetry=out/runs"});
  EXPECT_TRUE(b.telemetry);
  EXPECT_EQ(b.telemetry_dir, "out/runs");

  // Default: off.
  const BenchOptions c = parse({"bench"});
  EXPECT_FALSE(c.telemetry);
}

TEST(ReportArgs, BareTelemetryDoesNotConsumeNextArg) {
  // Like --profile, the optional value only binds with '=': a bare
  // --telemetry followed by another flag must leave that flag intact.
  const BenchOptions o =
      parse({"bench", "--telemetry", "--json", "out.json"});
  EXPECT_TRUE(o.telemetry);
  EXPECT_TRUE(o.telemetry_dir.empty());
  EXPECT_EQ(o.json_path, "out.json");
}

}  // namespace
}  // namespace hulkv::report
