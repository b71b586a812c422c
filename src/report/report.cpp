#include "report/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/cli.hpp"
#include "common/json_quote.hpp"

namespace hulkv::report {

Value Value::integer(i64 v) {
  Value out;
  out.kind_ = Kind::kInt;
  out.int_ = v;
  return out;
}

Value Value::uinteger(u64 v) {
  Value out;
  out.kind_ = Kind::kUint;
  out.uint_ = v;
  return out;
}

Value Value::number(double v, int precision) {
  Value out;
  out.kind_ = Kind::kDouble;
  out.dbl_ = v;
  out.precision_ = precision;
  return out;
}

Value Value::text(std::string s) {
  Value out;
  out.kind_ = Kind::kText;
  out.text_ = std::move(s);
  return out;
}

std::string Value::to_text() const {
  char buf[64];
  switch (kind_) {
    case Kind::kText:
      return text_;
    case Kind::kInt:
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(int_));
      return buf;
    case Kind::kUint:
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(uint_));
      return buf;
    case Kind::kDouble:
      if (!std::isfinite(dbl_)) return "-";
      std::snprintf(buf, sizeof(buf), "%.*f", precision_, dbl_);
      return buf;
  }
  return {};
}

std::string Value::to_json() const {
  if (kind_ == Kind::kText) return json_quote(text_);
  if (kind_ == Kind::kDouble && !std::isfinite(dbl_)) return "null";
  return to_text();
}

double Value::as_double() const {
  switch (kind_) {
    case Kind::kInt: return static_cast<double>(int_);
    case Kind::kUint: return static_cast<double>(uint_);
    case Kind::kDouble: return dbl_;
    case Kind::kText: return 0.0;
  }
  return 0.0;
}

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void Table::add_row(std::vector<Value> cells) {
  HULKV_CHECK(cells.size() == columns_.size(),
              "table row width mismatches its columns");
  rows_.push_back(std::move(cells));
}

std::string Table::to_text() const {
  // Column widths from header and every rendered cell.
  std::vector<size_t> width(columns_.size());
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(rows_.size());
  for (size_t c = 0; c < columns_.size(); ++c) width[c] = columns_[c].size();
  for (const auto& row : rows_) {
    auto& line = rendered.emplace_back();
    line.reserve(row.size());
    for (size_t c = 0; c < row.size(); ++c) {
      line.push_back(row[c].to_text());
      width[c] = std::max(width[c], line.back().size());
    }
  }

  std::ostringstream os;
  if (!title_.empty()) os << title_ << "\n";
  const auto pad = [&](const std::string& cell, size_t c, bool right) {
    const size_t fill = width[c] - cell.size();
    if (right) os << std::string(fill, ' ') << cell;
    else os << cell << std::string(fill, ' ');
  };
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (c != 0) os << "  ";
    pad(columns_[c], c, /*right=*/c != 0);
  }
  os << "\n";
  size_t rule = 0;
  for (size_t c = 0; c < columns_.size(); ++c) rule += width[c] + (c ? 2 : 0);
  os << std::string(rule, '-') << "\n";
  for (size_t r = 0; r < rows_.size(); ++r) {
    for (size_t c = 0; c < rows_[r].size(); ++c) {
      if (c != 0) os << "  ";
      pad(rendered[r][c], c, /*right=*/rows_[r][c].is_numeric());
    }
    os << "\n";
  }
  return os.str();
}

void Table::to_json(std::ostream& os) const {
  os << "{\"title\":" << json_quote(title_) << ",\"columns\":[";
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (c != 0) os << ",";
    os << json_quote(columns_[c]);
  }
  os << "],\"rows\":[";
  for (size_t r = 0; r < rows_.size(); ++r) {
    if (r != 0) os << ",";
    os << "[";
    for (size_t c = 0; c < rows_[r].size(); ++c) {
      if (c != 0) os << ",";
      os << rows_[r][c].to_json();
    }
    os << "]";
  }
  os << "]}";
}

void MetricsReport::add_metric(const std::string& key, Value v,
                               std::string unit) {
  metrics_.push_back(Metric{key, std::move(v), std::move(unit)});
}

Table& MetricsReport::add_table(std::string title,
                                std::vector<std::string> columns) {
  tables_.emplace_back(std::move(title), std::move(columns));
  return tables_.back();
}

const Value* MetricsReport::metric(const std::string& key) const {
  for (const auto& m : metrics_) {
    if (m.key == key) return &m.value;
  }
  return nullptr;
}

std::string MetricsReport::metric_text(const std::string& key) const {
  const Value* v = metric(key);
  return v == nullptr ? std::string("?") : v->to_text();
}

std::string MetricsReport::to_text() const {
  std::ostringstream os;
  os << "== " << name_ << " ==\n";
  for (const auto& table : tables_) {
    os << "\n" << table.to_text();
  }
  if (!metrics_.empty()) {
    os << "\n";
    for (const auto& m : metrics_) {
      os << m.key << " = " << m.value.to_text();
      if (!m.unit.empty()) os << " " << m.unit;
      os << "\n";
    }
  }
  for (const auto& note : notes_) os << note << "\n";
  return os.str();
}

std::string MetricsReport::to_json() const {
  std::ostringstream os;
  os << "{\"name\":" << json_quote(name_) << ",\"metrics\":{";
  for (size_t m = 0; m < metrics_.size(); ++m) {
    if (m != 0) os << ",";
    os << json_quote(metrics_[m].key) << ":{\"value\":"
       << metrics_[m].value.to_json() << ",\"unit\":"
       << json_quote(metrics_[m].unit) << "}";
  }
  os << "},\"tables\":[";
  for (size_t t = 0; t < tables_.size(); ++t) {
    if (t != 0) os << ",";
    tables_[t].to_json(os);
  }
  os << "],\"notes\":[";
  for (size_t n = 0; n < notes_.size(); ++n) {
    if (n != 0) os << ",";
    os << json_quote(notes_[n]);
  }
  os << "]}\n";
  return os.str();
}

void MetricsReport::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw SimError("cannot open report output file: " + path);
  out << to_json();
  if (!out) throw SimError("failed writing report file: " + path);
}

BenchOptions bench_args_or_exit(int argc, char** argv, BenchCli cli) {
  std::string program = argc > 0 ? argv[0] : "bench";
  program = program.substr(program.find_last_of('/') + 1);
  BenchOptions options;
  cli::Parser parser = bench_flag_parser(program, &options);
  const std::string error = [&]() -> std::string {
    if (!parser.parse(argc, argv,
                      cli.passes_unknown ? cli::Parser::OnUnknown::kIgnore
                                         : cli::Parser::OnUnknown::kError)) {
      return parser.error();
    }
    const bool tracing = !options.trace_path.empty();
    if (tracing && !cli.writes_trace) {
      return program + ": --trace is not implemented by this bench";
    }
    if (options.profile || tracing) {
      if (options.jobs > 1) {
        return program +
               ": --profile and --trace record into one process-wide "
               "session and need --jobs 1";
      }
      options.jobs = 1;
    }
    return "";
  }();
  if (!error.empty()) {
    std::cerr << error << "\n" << parser.usage();
    std::exit(2);
  }
  return options;
}

cli::Parser bench_flag_parser(const std::string& program,
                              BenchOptions* options) {
  cli::Parser parser(program);
  parser
      .add_string("--json", &options->json_path,
                  "write the report as BENCH-style JSON to this path")
      .add_string("--trace", &options->trace_path,
                  "write a Perfetto/Chrome event trace to this path")
      .add_u32("--jobs", &options->jobs,
               "sweep worker count (0 = hardware concurrency)")
      .add_optional_value("--profile", &options->profile,
                          &options->profile_path,
                          "cycle-attribution profiler (=PATH writes "
                          ".folded/.annotated.txt)")
      .add_optional_value("--telemetry", &options->telemetry,
                          &options->telemetry_dir,
                          "append a run manifest (=DIR overrides runs/)");
  return parser;
}

void finish_bench(const MetricsReport& report, const BenchOptions& options) {
  std::cout << report.to_text();
  if (!options.json_path.empty()) {
    report.write_json(options.json_path);
    std::cout << "\n[report] wrote " << options.json_path << "\n";
  }
}

}  // namespace hulkv::report
