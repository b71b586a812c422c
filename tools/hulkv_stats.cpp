// hulkv-stats: list, aggregate and schema-check the telemetry run
// manifests the benches write (runs/<bench>.jsonl, from --telemetry).
//
//   hulkv-stats list  <manifests.jsonl>...
//   hulkv-stats agg   <manifests.jsonl> [--metric KEY]
//   hulkv-stats check <manifests.jsonl> [--schema schema.json]
//
// Live modes against a running hulkv-serve (DESIGN.md §17): scrape /
// trace print one kMetrics exposition / kTrace Perfetto JSON; tail
// polls kMetrics and prints one per-interval delta line; top renders a
// refreshing one-screen view.
//
//   hulkv-stats scrape --socket S | --port P
//   hulkv-stats trace  --socket S | --port P
//   hulkv-stats tail   --socket S | --port P [--interval-ms N] [--count N]
//   hulkv-stats top    --socket S | --port P [--interval-ms N] [--count N]
//
// A bad command line (unknown flag, malformed or out-of-range value,
// wrong number of files) exits 2 with a message naming the argument.
// No external dependencies: uses the in-repo telemetry::json reader.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/types.hpp"
#include "serve/client.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/json.hpp"
#include "telemetry/manifest.hpp"

namespace {

using namespace hulkv;
namespace json = telemetry::json;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SimError("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<json::Value> load_manifests(const std::string& path) {
  std::vector<json::Value> runs = json::parse_lines(read_file(path));
  if (runs.empty()) {
    throw SimError("no runs in " + path);
  }
  return runs;
}

/// Flat {metric key -> numeric value} view of one manifest's metrics
/// object ({"key": {"value": N, "unit": "..."}}); non-numeric values
/// (text cells) are skipped.
std::map<std::string, double> numeric_metrics(const json::Value& run) {
  std::map<std::string, double> out;
  const json::Value* metrics = run.find("metrics");
  if (!metrics || !metrics->is(json::Kind::kObject)) return out;
  for (const auto& [key, cell] : metrics->as_object()) {
    const json::Value* value = cell.find("value");
    if (value && value->is(json::Kind::kNumber)) {
      out[key] = value->as_number();
    }
  }
  return out;
}

std::string metric_unit(const json::Value& run, const std::string& key) {
  const json::Value* cell = run.find_path("metrics." + key);
  const json::Value* unit = cell ? cell->find("unit") : nullptr;
  return unit && unit->is(json::Kind::kString) ? unit->as_string() : "";
}

/// Manifest kind ("bench" = one bench run, "serve" = a serve-daemon
/// lifetime); empty for pre-v3 manifests that predate the field.
std::string kind_of(const json::Value& run) {
  const json::Value* kind = run.find("kind");
  return kind && kind->is(json::Kind::kString) ? kind->as_string() : "";
}

/// ISO-ish local date from a nanosecond epoch timestamp, for `list`.
std::string date_of(u64 timestamp_ns) {
  const time_t secs = static_cast<time_t>(timestamp_ns / 1000000000ull);
  struct tm tm_buf = {};
  if (gmtime_r(&secs, &tm_buf) == nullptr) return "?";
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%d %H:%M:%S", &tm_buf);
  return buf;
}

int cmd_list(const std::vector<std::string>& files) {
  for (const std::string& path : files) {
    const std::vector<json::Value> runs = load_manifests(path);
    std::printf("%s: %zu run%s\n", path.c_str(), runs.size(),
                runs.size() == 1 ? "" : "s");
    for (size_t i = 0; i < runs.size(); ++i) {
      const json::Value& run = runs[i];
      const json::Value* bench = run.find("bench");
      const json::Value* ts = run.find("timestamp_ns");
      const json::Value* host = run.find_path("host.hostname");
      const size_t metrics = numeric_metrics(run).size();
      const json::Value* phases = run.find("phases");
      const size_t nphases =
          phases && phases->is(json::Kind::kObject)
              ? phases->as_object().size() : 0;
      const std::string kind = kind_of(run);
      std::printf(
          "  [%zu] %s  %s  kind=%s  host=%s  %zu metrics, %zu phases\n",
          i, ts ? date_of(static_cast<u64>(ts->as_number())).c_str() : "?",
          bench ? bench->as_string().c_str() : "?",
          kind.empty() ? "?" : kind.c_str(),
          host ? host->as_string().c_str() : "?", metrics, nphases);
    }
  }
  return 0;
}

int cmd_agg(const std::string& path, const std::string& only_metric) {
  const std::vector<json::Value> runs = load_manifests(path);
  struct Agg {
    u64 count = 0;
    double sum = 0, min = 0, max = 0, latest = 0;
  };
  std::map<std::string, Agg> aggs;
  for (const json::Value& run : runs) {
    for (const auto& [key, value] : numeric_metrics(run)) {
      if (!only_metric.empty() && key != only_metric) continue;
      Agg& a = aggs[key];
      if (a.count == 0) {
        a.min = a.max = value;
      } else {
        a.min = std::min(a.min, value);
        a.max = std::max(a.max, value);
      }
      a.sum += value;
      a.latest = value;
      ++a.count;
    }
  }
  if (aggs.empty()) {
    std::fprintf(stderr, "hulkv-stats agg: no matching numeric metrics\n");
    return 1;
  }
  std::printf("%s: %zu runs\n", path.c_str(), runs.size());
  std::printf("%-32s %5s %14s %14s %14s %14s\n", "metric", "n", "mean",
              "min", "max", "latest");
  for (const auto& [key, a] : aggs) {
    const std::string unit = metric_unit(runs.back(), key);
    std::printf("%-32s %5llu %14.4g %14.4g %14.4g %14.4g %s\n",
                key.c_str(), static_cast<unsigned long long>(a.count),
                a.sum / static_cast<double>(a.count), a.min, a.max,
                a.latest, unit.c_str());
  }
  return 0;
}

/// Validate `value` against a minimal JSON-Schema subset: "type"
/// (null/boolean/number/string/array/object, or integer = number with
/// integral raw text), "required" + "properties" on objects, "items"
/// on arrays. Violations are printed with their path; returns count.
int validate(const json::Value& value, const json::Value& schema,
             const std::string& path) {
  int violations = 0;
  const json::Value* type = schema.find("type");
  if (type && type->is(json::Kind::kString)) {
    const std::string& want = type->as_string();
    static const std::map<std::string, json::Kind> kKinds = {
        {"null", json::Kind::kNull},     {"boolean", json::Kind::kBool},
        {"number", json::Kind::kNumber}, {"integer", json::Kind::kNumber},
        {"string", json::Kind::kString}, {"array", json::Kind::kArray},
        {"object", json::Kind::kObject}};
    const auto it = kKinds.find(want);
    if (it == kKinds.end() || !value.is(it->second)) {
      std::printf("  %s: expected %s, got %s\n", path.c_str(),
                  want.c_str(), json::kind_name(value.kind()));
      return violations + 1;  // wrong shape: nested checks are noise
    }
    if (want == "integer" &&
        value.raw_number().find_first_of(".eE") != std::string::npos) {
      std::printf("  %s: expected integer, got %s\n", path.c_str(),
                  value.raw_number().c_str());
      ++violations;
    }
  }
  const json::Value* required = schema.find("required");
  if (required && required->is(json::Kind::kArray) &&
      value.is(json::Kind::kObject)) {
    for (const json::Value& key : required->as_array()) {
      if (!value.find(key.as_string())) {
        std::printf("  %s: missing required member \"%s\"\n", path.c_str(),
                    key.as_string().c_str());
        ++violations;
      }
    }
  }
  const json::Value* props = schema.find("properties");
  if (props && props->is(json::Kind::kObject) &&
      value.is(json::Kind::kObject)) {
    for (const auto& [key, subschema] : props->as_object()) {
      if (const json::Value* member = value.find(key)) {
        violations += validate(*member, subschema, path + "." + key);
      }
    }
  }
  const json::Value* items = schema.find("items");
  if (items && value.is(json::Kind::kArray)) {
    const json::Array& array = value.as_array();
    for (size_t i = 0; i < array.size(); ++i) {
      violations += validate(array[i], *items,
                             path + "[" + std::to_string(i) + "]");
    }
  }
  return violations;
}

int cmd_check(const std::string& path, const std::string& schema_path) {
  const std::vector<json::Value> runs = load_manifests(path);
  json::Value schema;
  if (!schema_path.empty()) schema = json::parse(read_file(schema_path));

  int violations = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    const json::Value& run = runs[i];
    const std::string where = "run[" + std::to_string(i) + "]";
    // Built-in invariants every manifest version must satisfy.
    const json::Value* version = run.find("schema_version");
    if (!version || !version->is(json::Kind::kNumber)) {
      std::printf("  %s: missing schema_version\n", where.c_str());
      ++violations;
    } else if (static_cast<u32>(version->as_number()) !=
               telemetry::kManifestSchemaVersion) {
      std::printf("  %s: schema_version %g, tool expects %u\n",
                  where.c_str(), version->as_number(),
                  telemetry::kManifestSchemaVersion);
      ++violations;
    }
    const json::Value* bench = run.find("bench");
    if (!bench || !bench->is(json::Kind::kString) ||
        bench->as_string().empty()) {
      std::printf("  %s: missing or empty bench name\n", where.c_str());
      ++violations;
    }
    const std::string kind = kind_of(run);
    if (kind != telemetry::kManifestKindBench &&
        kind != telemetry::kManifestKindServe) {
      std::printf("  %s: kind \"%s\" is not \"%s\" or \"%s\"\n",
                  where.c_str(), kind.c_str(),
                  telemetry::kManifestKindBench,
                  telemetry::kManifestKindServe);
      ++violations;
    }
    // v4 invariant: a serve-daemon lifetime carries its per-request
    // aggregates; bench manifests must not grow the section.
    const json::Value* serve_requests = run.find("serve_requests");
    if (kind == telemetry::kManifestKindServe && serve_requests == nullptr) {
      std::printf("  %s: kind \"serve\" without serve_requests\n",
                  where.c_str());
      ++violations;
    }
    if (kind == telemetry::kManifestKindBench && serve_requests != nullptr) {
      std::printf("  %s: kind \"bench\" with serve_requests\n",
                  where.c_str());
      ++violations;
    }
    if (!schema_path.empty()) {
      violations += validate(run, schema, where);
    }
  }
  std::printf("check: %s — %zu run%s, %d violation%s\n", path.c_str(),
              runs.size(), runs.size() == 1 ? "" : "s", violations,
              violations == 1 ? "" : "s");
  return violations == 0 ? 0 : 1;
}

// ---- live modes (scrape / trace / tail / top) ----

/// Where the live modes connect: a unix socket path, else a TCP port
/// on 127.0.0.1 (main() has checked that one of them is set).
struct Endpoint {
  std::string socket_path;
  u32 port = 0;
};

serve::Client connect_serve(const Endpoint& at) {
  if (!at.socket_path.empty()) {
    return serve::Client::connect_unix(at.socket_path);
  }
  return serve::Client::connect_tcp(static_cast<u16>(at.port));
}

/// One metrics-plane round trip (kMetrics or kTrace); returns the text
/// payload. These requests carry zero flags/deadline/point bytes — the
/// server rejects anything else as kBadRequest.
std::string fetch_text(serve::Client& client, serve::MsgType type,
                       u64 request_id) {
  serve::Request req;
  req.type = type;
  req.request_id = request_id;
  req.point = {0, 0, 0};
  const serve::Response resp = client.call(req);
  if (resp.status != serve::Status::kOk) {
    throw SimError(std::string("server answered ") +
                   serve::status_name(resp.status));
  }
  return resp.text;
}

/// Minimal Prometheus text-exposition parser: "name{labels} value"
/// lines keyed verbatim (labels included); comment lines skipped.
std::map<std::string, double> parse_prometheus(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) continue;
    try {
      out[line.substr(0, space)] = std::stod(line.substr(space + 1));
    } catch (const std::exception&) {
      // Not a numeric sample; skip.
    }
  }
  return out;
}

double sample(const std::map<std::string, double>& m,
              const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

/// The shared latency line for one pipeline stage, from the scraped
/// summary quantiles (same renderer the daemon-side histograms use).
std::string stage_line(const std::map<std::string, double>& m,
                       const std::string& stage) {
  const auto q = [&](const char* quantile) {
    return sample(m, "hulkv_serve_stage_latency_ns{stage=\"" + stage +
                         "\",quantile=\"" + quantile + "\"}");
  };
  const double count =
      sample(m, "hulkv_serve_stage_latency_ns_count{stage=\"" + stage +
                    "\"}");
  const double sum = sample(
      m, "hulkv_serve_stage_latency_ns_sum{stage=\"" + stage + "\"}");
  return telemetry::latency_summary_text(
      static_cast<u64>(count), count == 0 ? 0.0 : sum / count, q("0.5"),
      q("0.9"), q("0.99"), q("0.999"));
}

constexpr const char* kStageNames[] = {
    "admission", "queue_wait",     "cache_lookup",
    "warm_fork", "execute",        "response_write"};

int cmd_scrape(const Endpoint& at) {
  serve::Client client = connect_serve(at);
  std::fputs(fetch_text(client, serve::MsgType::kMetrics, 1).c_str(),
             stdout);
  return 0;
}

int cmd_trace_op(const Endpoint& at) {
  serve::Client client = connect_serve(at);
  std::printf("%s\n",
              fetch_text(client, serve::MsgType::kTrace, 1).c_str());
  return 0;
}

int cmd_tail(const Endpoint& at, u32 interval_ms, u64 count) {
  serve::Client client = connect_serve(at);
  std::map<std::string, double> prev;
  std::printf("%8s %8s %8s %8s %8s %8s %6s %6s %6s  %s\n", "req/s",
              "ok/s", "rej/s", "hit/s", "miss/s", "chunk/s", "queue",
              "infl", "util", "execute");
  const auto delta = [&](const std::map<std::string, double>& now,
                         const std::string& key) {
    return sample(now, key) - sample(prev, key);
  };
  for (u64 i = 0; count == 0 || i < count; ++i) {
    if (i != 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(interval_ms));
    }
    const std::map<std::string, double> now = parse_prometheus(
        fetch_text(client, serve::MsgType::kMetrics, 2 + i));
    // First poll prints absolute counts over the daemon's uptime; the
    // rest are per-interval rates.
    const double dt = i == 0 ? sample(now, "hulkv_serve_uptime_seconds")
                             : interval_ms / 1e3;
    const double rejected =
        delta(now, "hulkv_serve_responses_total{outcome=\"bad_request\"}") +
        delta(now, "hulkv_serve_responses_total{outcome=\"queue_full\"}") +
        delta(now,
              "hulkv_serve_responses_total{outcome=\"quota_exceeded\"}") +
        delta(now,
              "hulkv_serve_responses_total{outcome=\"shutting_down\"}") +
        delta(now,
              "hulkv_serve_responses_total{outcome=\"deadline_expired\"}");
    const double rate = dt == 0.0 ? 0.0 : 1.0 / dt;
    std::printf(
        "%8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %6.0f %6.0f %6.2f  %s\n",
        delta(now, "hulkv_serve_requests_total") * rate,
        delta(now, "hulkv_serve_responses_total{outcome=\"ok\"}") * rate,
        rejected * rate,
        delta(now, "hulkv_serve_cache_hits_total") * rate,
        delta(now, "hulkv_serve_cache_misses_total") * rate,
        delta(now, "hulkv_serve_run_chunks_total") * rate,
        sample(now, "hulkv_serve_queue_depth"),
        sample(now, "hulkv_serve_in_flight_points"),
        sample(now, "hulkv_serve_utilization"),
        stage_line(now, "execute").c_str());
    std::fflush(stdout);
    prev = now;
  }
  return 0;
}

int cmd_top(const Endpoint& at, u32 interval_ms, u64 count) {
  serve::Client client = connect_serve(at);
  for (u64 i = 0; count == 0 || i < count; ++i) {
    if (i != 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(interval_ms));
    }
    const std::map<std::string, double> m = parse_prometheus(
        fetch_text(client, serve::MsgType::kMetrics, 2 + i));
    // ANSI home + clear-below: a refreshing one-screen view.
    std::printf("\033[H\033[J");
    std::printf(
        "hulkv-serve  up %.1fs  workers %.0f  util %.2f  queue %.0f  "
        "in-flight %.0f\n\n",
        sample(m, "hulkv_serve_uptime_seconds"),
        sample(m, "hulkv_serve_workers"),
        sample(m, "hulkv_serve_utilization"),
        sample(m, "hulkv_serve_queue_depth"),
        sample(m, "hulkv_serve_in_flight_points"));
    std::printf(
        "requests %-10.0f admitted %-10.0f ok %-10.0f pings %.0f\n",
        sample(m, "hulkv_serve_requests_total"),
        sample(m, "hulkv_serve_requests_admitted_total"),
        sample(m, "hulkv_serve_responses_total{outcome=\"ok\"}"),
        sample(m, "hulkv_serve_pings_total"));
    std::printf(
        "rejects  bad_request %.0f  queue_full %.0f  quota %.0f  "
        "deadline %.0f  shutdown %.0f  internal %.0f\n",
        sample(m, "hulkv_serve_responses_total{outcome=\"bad_request\"}"),
        sample(m, "hulkv_serve_responses_total{outcome=\"queue_full\"}"),
        sample(m,
               "hulkv_serve_responses_total{outcome=\"quota_exceeded\"}"),
        sample(m,
               "hulkv_serve_responses_total{outcome=\"deadline_expired\"}"),
        sample(m,
               "hulkv_serve_responses_total{outcome=\"shutting_down\"}"),
        sample(m,
               "hulkv_serve_responses_total{outcome=\"internal_error\"}"));
    const double hits = sample(m, "hulkv_serve_cache_hits_total");
    const double misses = sample(m, "hulkv_serve_cache_misses_total");
    std::printf(
        "cache    hits %.0f  misses %.0f  hit-rate %.2f  entries %.0f  "
        "cold builds %.0f  chunks %.0f\n",
        hits, misses,
        hits + misses == 0 ? 0.0 : hits / (hits + misses),
        sample(m, "hulkv_serve_cache_entries"),
        sample(m, "hulkv_serve_cold_builds_total"),
        sample(m, "hulkv_serve_run_chunks_total"));
    std::printf(
        "traces   completed %.0f  dropped %.0f  slow %.0f  scrapes %.0f\n\n",
        sample(m, "hulkv_serve_trace_completed_total"),
        sample(m, "hulkv_serve_trace_dropped_total"),
        sample(m, "hulkv_serve_slow_requests_total"),
        sample(m, "hulkv_serve_metrics_scrapes_total"));
    std::printf("%-15s %s\n", "stage", "latency");
    for (const char* stage : kStageNames) {
      std::printf("%-15s %s\n", stage, stage_line(m, stage).c_str());
    }
    std::fflush(stdout);
  }
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: hulkv-stats <command> [args]\n"
      "  list  <manifests.jsonl>...            one line per recorded run\n"
      "  agg   <manifests.jsonl> [--metric K]  aggregate metrics across runs\n"
      "  check <manifests.jsonl> [--schema scripts/manifest_schema.json]\n"
      "                                        validate run manifests\n"
      "  scrape --socket S | --port P          one kMetrics exposition\n"
      "  trace  --socket S | --port P          kTrace Perfetto JSON\n"
      "  tail   --socket S | --port P [--interval-ms N] [--count N]\n"
      "                                        per-interval delta lines\n"
      "  top    --socket S | --port P [--interval-ms N] [--count N]\n"
      "                                        live one-screen view\n");
  return 2;
}

/// A command-line error: the message, then the usage text; exit 2.
int usage_error(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const bool live =
      cmd == "scrape" || cmd == "trace" || cmd == "tail" || cmd == "top";
  if (!live && cmd != "list" && cmd != "agg" && cmd != "check") {
    return usage_error("hulkv-stats: unknown command '" + cmd + "'");
  }

  // Each command's flags; every one of them takes a value.
  std::string metric;
  std::string schema;
  Endpoint at;
  u32 interval_ms = 1000;
  u64 count = 0;
  cli::Parser parser("hulkv-stats");
  if (cmd == "agg") parser.add_string("--metric", &metric, "");
  if (cmd == "check") parser.add_string("--schema", &schema, "");
  if (live) {
    parser.add_string("--socket", &at.socket_path, "")
        .add_u32("--port", &at.port, "");
  }
  if (cmd == "tail" || cmd == "top") {
    parser.add_u32("--interval-ms", &interval_ms, "")
        .add_u64("--count", &count, "");
  }
  // The manifest paths are positional; the flags, with the value that
  // follows each `--flag` spelled without `=`, go to the parser.
  std::vector<char*> flags = {argv[0]};
  std::vector<std::string> files;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("-")) {
      files.emplace_back(arg);
      continue;
    }
    flags.push_back(argv[i]);
    if (arg.find('=') == std::string_view::npos && i + 1 < argc) {
      flags.push_back(argv[++i]);
    }
  }
  if (!parser.parse(static_cast<int>(flags.size()), flags.data())) {
    return usage_error(parser.error());
  }
  if (live) {
    if (!files.empty()) {
      return usage_error("hulkv-stats: " + cmd + " takes no file, got \"" +
                         files[0] + "\"");
    }
    if (at.port > 65535) {
      return usage_error("hulkv-stats: --port " + std::to_string(at.port) +
                         " is out of range (1-65535)");
    }
    if (at.socket_path.empty() && at.port == 0) {
      return usage_error("hulkv-stats: " + cmd +
                         " needs --socket PATH or --port N");
    }
  } else if (files.empty() || (cmd != "list" && files.size() != 1)) {
    return usage_error("hulkv-stats: " + cmd + " takes " +
                       (cmd == "list" ? "one or more manifest files"
                                      : "exactly one manifest file"));
  }

  try {
    if (cmd == "list") return cmd_list(files);
    if (cmd == "agg") return cmd_agg(files[0], metric);
    if (cmd == "check") return cmd_check(files[0], schema);
    if (cmd == "scrape") return cmd_scrape(at);
    if (cmd == "trace") return cmd_trace_op(at);
    if (cmd == "tail") return cmd_tail(at, interval_ms, count);
    return cmd_top(at, interval_ms, count);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hulkv-stats: %s\n", e.what());
    return 1;
  }
}
