// hulkv-loadgen: load generator and latency recorder for hulkv-serve.
//
// Opens N concurrent connections and drives requests either closed-
// loop (each connection waits for a response before sending the next —
// measures latency at a bounded concurrency) or open-loop (each
// connection pipelines its whole batch up front, then drains the
// responses — measures saturation behaviour and admission control).
// Per-request wall latency lands in a telemetry histogram; the summary
// is one JSON line on stdout.
//
// --cold-baseline N additionally runs N *local* cold-boot simulations
// of the same points (construct + setup + warm run + timed run, the
// steady-state discipline of bench/fig8_llc_effect.cpp), to compare a
// warm fork with a cold boot.
//
// A bad command line (unknown flag, malformed value, or a port, type,
// workload, memory kind or LLC flag the daemon cannot take) exits 2
// with a message naming the flag, before any connection is made.
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "kernels/kernel.hpp"
#include "serve/client.hpp"
#include "serve/workload.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace hulkv;

struct LoadStats {
  telemetry::HistogramData latency;  // per-request wall ns
  u64 sent = 0;
  u64 ok = 0;
  u64 rejected = 0;  // any non-kOk status
  u64 rows = 0;
  u64 errors = 0;  // transport/protocol failures
};

struct LoadOptions {
  std::string socket_path;
  u32 port = 0;
  u32 connections = 1;
  u32 requests = 8;
  std::string mode = "closed";
  std::string type = "run";
  u32 workload = 255;  // 255 = cycle through the catalogue
  u32 mem_kind = 1;    // ddr4
  u32 llc = 1;
  bool no_cache = false;
  u32 deadline_ms = 0;
  u32 cold_baseline = 0;
};

serve::Client connect(const LoadOptions& opt) {
  if (!opt.socket_path.empty()) {
    return serve::Client::connect_unix(opt.socket_path);
  }
  return serve::Client::connect_tcp(static_cast<u16>(opt.port));
}

serve::Request make_request(const LoadOptions& opt, u32 conn, u32 index) {
  serve::Request req;
  if (opt.type == "run") req.type = serve::MsgType::kRun;
  else if (opt.type == "sweep") req.type = serve::MsgType::kSweep;
  else if (opt.type == "suite") req.type = serve::MsgType::kSuite;
  else req.type = serve::MsgType::kPing;
  req.flags = opt.no_cache ? serve::kFlagNoCache : 0;
  req.client_id = conn;
  req.request_id = u64{conn} << 32 | index;
  req.deadline_ms = opt.deadline_ms;
  req.point.workload =
      opt.workload == 255
          ? static_cast<u8>(index % serve::workload_count())
          : static_cast<u8>(opt.workload);
  req.point.mem_kind = static_cast<u8>(opt.mem_kind);
  req.point.llc = static_cast<u8>(opt.llc);
  return req;
}

void note_response(LoadStats& stats, const serve::Response& resp) {
  if (resp.status == serve::Status::kOk) {
    ++stats.ok;
    stats.rows += resp.rows.size();
  } else {
    ++stats.rejected;
  }
}

LoadStats drive_closed(const LoadOptions& opt, u32 conn) {
  LoadStats stats;
  serve::Client client = connect(opt);
  for (u32 i = 0; i < opt.requests; ++i) {
    const serve::Request req = make_request(opt, conn, i);
    const u64 t0 = telemetry::now_ns();
    const serve::Response resp = client.call(req);
    stats.latency.record(telemetry::now_ns() - t0);
    ++stats.sent;
    note_response(stats, resp);
  }
  return stats;
}

LoadStats drive_open(const LoadOptions& opt, u32 conn) {
  LoadStats stats;
  serve::Client client = connect(opt);
  std::map<u64, u64> send_ns;  // request_id -> send time
  for (u32 i = 0; i < opt.requests; ++i) {
    const serve::Request req = make_request(opt, conn, i);
    send_ns[req.request_id] = telemetry::now_ns();
    client.send(req);
    ++stats.sent;
  }
  client.shutdown_write();
  serve::Response resp;
  while (client.recv(&resp)) {
    const u64 now = telemetry::now_ns();
    const auto it = send_ns.find(resp.request_id);
    if (it != send_ns.end()) {
      stats.latency.record(now - it->second);
      send_ns.erase(it);
    }
    note_response(stats, resp);
  }
  stats.errors += send_ns.size();  // requests that never got a response
  return stats;
}

/// The usage error in `opt`, or "" when the daemon can take every
/// value. Checked before connecting: a point field is one byte on the
/// wire, so an unchecked --workload 257 would run workload 1.
std::string check_options(const LoadOptions& opt) {
  if (opt.socket_path.empty() && opt.port == 0) {
    return "needs --socket PATH or --port N";
  }
  if (opt.port > 65535) {
    return "--port " + std::to_string(opt.port) +
           " is out of range (1-65535)";
  }
  if (opt.mode != "closed" && opt.mode != "open") {
    return "--mode expects closed or open, got \"" + opt.mode + "\"";
  }
  if (opt.type != "run" && opt.type != "sweep" && opt.type != "suite" &&
      opt.type != "ping") {
    return "--type expects run, sweep, suite or ping, got \"" + opt.type +
           "\"";
  }
  if (opt.workload != 255 && opt.workload >= serve::workload_count()) {
    return "--workload expects 0-" +
           std::to_string(serve::workload_count() - 1) + " or 255, got " +
           std::to_string(opt.workload);
  }
  if (opt.mem_kind > static_cast<u32>(core::MainMemoryKind::kRpcDram)) {
    return "--mem expects 0, 1 or 2, got " + std::to_string(opt.mem_kind);
  }
  if (opt.llc > 1) {
    return "--llc expects 0 or 1, got " + std::to_string(opt.llc);
  }
  return "";
}

/// Local cold-boot latency of the same point stream: what a request
/// costs without the daemon's warm-snapshot pool.
telemetry::HistogramData cold_baseline(const LoadOptions& opt) {
  telemetry::HistogramData hist;
  for (u32 i = 0; i < opt.cold_baseline; ++i) {
    serve::PointParams point;
    point.workload = opt.workload == 255
                         ? static_cast<u8>(i % serve::workload_count())
                         : static_cast<u8>(opt.workload);
    point.mem_kind = static_cast<u8>(opt.mem_kind);
    point.llc = static_cast<u8>(opt.llc);
    const u64 t0 = telemetry::now_ns();
    core::HulkVSoc soc(serve::point_config(point));
    const serve::WorkloadSetup setup =
        serve::setup_workload(point.workload, soc);
    kernels::run_host_program(soc, setup.program.words, setup.args);
    kernels::run_host_program(soc, setup.program.words, setup.args);
    hist.record(telemetry::now_ns() - t0);
  }
  return hist;
}

}  // namespace

int main(int argc, char** argv) {
  LoadOptions opt;
  bool help = false;
  cli::Parser parser("hulkv-loadgen",
                     "load generator for hulkv-serve: concurrent "
                     "connections, closed/open loop, latency recording");
  parser.add_string("--socket", &opt.socket_path,
                    "connect to a unix socket at this path");
  parser.add_u32("--port", &opt.port, "connect to 127.0.0.1:PORT");
  parser.add_u32("--connections", &opt.connections,
                 "concurrent client connections");
  parser.add_u32("--requests", &opt.requests,
                 "requests per connection");
  parser.add_string("--mode", &opt.mode, "closed | open (loop discipline)");
  parser.add_string("--type", &opt.type, "run | sweep | suite | ping");
  parser.add_u32("--workload", &opt.workload,
                 "workload id (255 = cycle through the catalogue)");
  parser.add_u32("--mem", &opt.mem_kind,
                 "memory kind: 0 hyperram, 1 ddr4, 2 rpcdram");
  parser.add_u32("--llc", &opt.llc, "LLC enable: 0 or 1");
  parser.add_flag("--no-cache", &opt.no_cache,
                  "bypass the server result cache on every request");
  parser.add_u32("--deadline-ms", &opt.deadline_ms,
                 "per-request relative deadline (0 = none)");
  parser.add_u32("--cold-baseline", &opt.cold_baseline,
                 "also run N local cold-boot points for comparison");
  parser.add_flag("--help", &help, "show this help");
  if (!parser.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", parser.error().c_str(),
                 parser.usage().c_str());
    return 2;
  }
  if (help) {
    std::fputs(parser.usage().c_str(), stdout);
    return 0;
  }
  if (opt.connections == 0) opt.connections = 1;
  if (const std::string error = check_options(opt); !error.empty()) {
    std::fprintf(stderr, "hulkv-loadgen: %s\n%s", error.c_str(),
                 parser.usage().c_str());
    return 2;
  }

  try {
    const telemetry::HistogramData cold =
        opt.cold_baseline != 0 ? cold_baseline(opt)
                               : telemetry::HistogramData{};

    std::vector<LoadStats> per_conn(opt.connections);
    std::vector<std::thread> threads;
    std::mutex error_mu;
    std::string first_error;
    const u64 wall0 = telemetry::now_ns();
    for (u32 c = 0; c < opt.connections; ++c) {
      threads.emplace_back([&, c] {
        try {
          per_conn[c] = opt.mode == "closed" ? drive_closed(opt, c)
                                             : drive_open(opt, c);
        } catch (const SimError& e) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (first_error.empty()) first_error = e.what();
          ++per_conn[c].errors;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const u64 wall_ns = telemetry::now_ns() - wall0;

    LoadStats total;
    for (const LoadStats& s : per_conn) {
      total.latency.merge(s.latency);
      total.sent += s.sent;
      total.ok += s.ok;
      total.rejected += s.rejected;
      total.rows += s.rows;
      total.errors += s.errors;
    }
    if (!first_error.empty()) {
      std::fprintf(stderr, "hulkv-loadgen: %s\n", first_error.c_str());
    }

    const double wall_s = static_cast<double>(wall_ns) / 1e9;
    std::printf(
        "{\"connections\":%u,\"mode\":\"%s\",\"type\":\"%s\","
        "\"sent\":%llu,\"ok\":%llu,\"rejected\":%llu,\"rows\":%llu,"
        "\"errors\":%llu,\"wall_s\":%.3f,\"requests_per_s\":%.2f,"
        "\"latency\":%s",
        opt.connections, opt.mode.c_str(), opt.type.c_str(),
        static_cast<unsigned long long>(total.sent),
        static_cast<unsigned long long>(total.ok),
        static_cast<unsigned long long>(total.rejected),
        static_cast<unsigned long long>(total.rows),
        static_cast<unsigned long long>(total.errors), wall_s,
        wall_s == 0.0 ? 0.0 : static_cast<double>(total.ok) / wall_s,
        total.latency.summary_json().c_str());
    if (opt.cold_baseline != 0) {
      std::printf(",\"cold_baseline\":%s", cold.summary_json().c_str());
    }
    std::printf("}\n");
    // Human-readable percentiles on stderr (stdout stays pure JSON),
    // in the shared hulkv-stats latency_summary_text format.
    std::fprintf(stderr, "[loadgen] latency %s\n",
                 total.latency.summary_text().c_str());
    if (opt.cold_baseline != 0) {
      std::fprintf(stderr, "[loadgen] cold    %s\n",
                   cold.summary_text().c_str());
    }
    return total.errors == 0 ? 0 : 1;
  } catch (const SimError& e) {
    std::fprintf(stderr, "hulkv-loadgen: %s\n", e.what());
    return 1;
  }
}
