// Machine-readable bench reports (hulkv::report).
//
// Every bench binary builds one MetricsReport and renders it twice:
// the aligned text tables printed to stdout and the BENCH_*.json file
// written by --json. Both renderings come from the same Value cells —
// a numeric Value stores its printf precision and formats identically
// in text and JSON — so the headline numbers in the two formats can
// never diverge.
#pragma once

#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/types.hpp"

namespace hulkv::report {

/// One table cell / metric value. Numbers remember their precision so
/// text and JSON render the exact same digits (a fixed-precision decimal
/// is always a valid JSON number).
class Value {
 public:
  Value() = default;

  static Value integer(i64 v);
  static Value uinteger(u64 v);
  static Value number(double v, int precision = 2);
  static Value text(std::string s);

  bool is_numeric() const { return kind_ != Kind::kText; }

  /// Exactly what the text table prints.
  std::string to_text() const;
  /// Same digits as to_text(); strings are JSON-quoted, non-finite
  /// numbers become null.
  std::string to_json() const;

  double as_double() const;

 private:
  enum class Kind : u8 { kText, kInt, kUint, kDouble };
  Kind kind_ = Kind::kText;
  i64 int_ = 0;
  u64 uint_ = 0;
  double dbl_ = 0.0;
  int precision_ = 2;
  std::string text_;
};

/// A titled table with named columns. Text rendering is aligned
/// (numeric cells right, text cells left); JSON rendering is
/// {"title":..., "columns":[...], "rows":[[...]]}.
class Table {
 public:
  Table() = default;
  Table(std::string title, std::vector<std::string> columns);

  void add_row(std::vector<Value> cells);

  const std::string& title() const { return title_; }
  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<std::vector<Value>>& rows() const { return rows_; }

  std::string to_text() const;
  void to_json(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<Value>> rows_;
};

/// The per-bench report: headline metrics (key/value/unit), tables, and
/// free-form notes.
class MetricsReport {
 public:
  struct Metric {
    std::string key;
    Value value;
    std::string unit;
  };

  explicit MetricsReport(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  void add_metric(const std::string& key, Value v, std::string unit = "");
  void add_note(std::string note) { notes_.push_back(std::move(note)); }

  /// Append a table and return a reference for row filling. References
  /// stay valid across later add_table calls (deque storage).
  Table& add_table(std::string title, std::vector<std::string> columns);

  const Value* metric(const std::string& key) const;
  /// Text form of a metric for embedding in printed prose; "?" when the
  /// key is unknown (benches print prose from the same cells the JSON
  /// serialises).
  std::string metric_text(const std::string& key) const;

  const std::deque<Table>& tables() const { return tables_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& notes() const { return notes_; }

  std::string to_text() const;
  std::string to_json() const;
  /// Write to_json() to `path`; throws SimError on I/O failure.
  void write_json(const std::string& path) const;

 private:
  std::string name_;
  std::vector<Metric> metrics_;
  std::deque<Table> tables_;
  std::vector<std::string> notes_;
};

/// Shared bench command line: --json <path> / --trace <path> /
/// --jobs <n> / --profile[=<path>] / --telemetry[=<dir>] (also the
/// --flag=value spellings for the value-taking flags).
struct BenchOptions {
  std::string json_path;
  std::string trace_path;
  /// Sweep worker count (batch::SweepEngine); 0 = hardware concurrency.
  u32 jobs = 0;
  /// Cycle-attribution profiler (hulkv::profile). Bare --profile prints
  /// the report tables only; --profile=<path> additionally writes
  /// <path>.folded (flamegraph/speedscope folded stacks) and
  /// <path>.annotated.txt (per-line annotated disassembly).
  bool profile = false;
  std::string profile_path;
  /// Host-side self-observability (hulkv::telemetry). Bare --telemetry
  /// appends the run manifest to runs/<bench>.jsonl; --telemetry=<dir>
  /// overrides the directory. Never touches stdout.
  bool telemetry = false;
  std::string telemetry_dir;
};

/// What a bench binary implements beyond parsing the shared flags.
struct BenchCli {
  /// Writes the --trace file; on every other bench --trace is refused.
  bool writes_trace = false;
};

/// A bench main()'s command line. A usage error — malformed value,
/// value flag without its value, unknown flag, --trace on a
/// bench that does not write one, or --profile/--trace with an
/// explicit --jobs above 1 (the profiler and the trace sink are
/// process-global) — prints the message and the usage to stderr and
/// exits 2. At the default --jobs, --profile and --trace run the sweep
/// on one worker.
BenchOptions bench_args_or_exit(int argc, char** argv, BenchCli cli = {});

/// The shared bench flag set as a cli::Parser over `options`, so other
/// binaries (the serve daemon, the load generator) can stack their own
/// flags on the same table instead of re-spelling --jobs/--json/
/// --telemetry/--profile.
cli::Parser bench_flag_parser(const std::string& program,
                              BenchOptions* options);

/// Emit the report: print text to stdout and, when --json was given,
/// write the JSON file (and note where it went).
void finish_bench(const MetricsReport& report, const BenchOptions& options);

}  // namespace hulkv::report
