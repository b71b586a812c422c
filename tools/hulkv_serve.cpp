// hulkv-serve: the simulation-as-a-service daemon (DESIGN.md §16).
//
// Serves run/sweep/suite simulation requests over a Unix or TCP socket
// from a warm-snapshot worker pool with result caching and admission
// control. SIGINT/SIGTERM shut down gracefully: in-flight requests
// drain (bounded by --drain-ms), every admitted request is answered,
// the telemetry manifest is flushed, and the process exits 0.
#include <csignal>
#include <cstdio>
#include <cstdlib>

#include "common/cli.hpp"
#include "serve/server.hpp"

namespace {

hulkv::serve::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hulkv;

  serve::ServerConfig config;
  u32 port = 0;
  bool telemetry = false;
  std::string telemetry_dir;
  bool help = false;
  cli::Parser parser(
      "hulkv-serve",
      "simulation-as-a-service daemon: run/sweep/suite requests over a "
      "socket, warm-snapshot forking, result cache, admission control");
  parser.add_string("--socket", &config.unix_path,
                    "serve on a unix socket at this path");
  parser.add_u32("--port", &port,
                 "serve on 127.0.0.1:PORT (0 = kernel-assigned; ignored "
                 "when --socket is given)");
  parser.add_u32("--workers", &config.workers, "simulation worker threads");
  parser.add_u32("--queue", &config.queue_capacity,
                 "bounded point-queue capacity (admission fast-reject)");
  parser.add_u32("--quota", &config.client_quota,
                 "max in-flight requests per client id");
  parser.add_u32("--drain-ms", &config.drain_ms,
                 "graceful-shutdown drain bound in milliseconds");
  parser.add_optional_value("--telemetry", &telemetry, &telemetry_dir,
                            "append a run manifest on shutdown "
                            "(--telemetry=DIR, default runs)");
  bool no_obs = false;
  parser.add_flag("--no-obs", &no_obs,
                  "disable request tracing (kMetrics/kTrace still "
                  "answer, with empty stage histograms)");
  parser.add_u32("--trace-ring", &config.trace_ring,
                 "completed-request trace ring capacity (kTrace)");
  parser.add_u32("--slow-ms", &config.slow_ms,
                 "log requests slower than this as one JSON line each "
                 "(0 = off)");
  parser.add_string("--slow-log", &config.slow_log_path,
                    "slow-request log file (default: stderr)");
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
  if (port > 65535) {
    std::fprintf(stderr, "hulkv-serve: --port out of range\n");
    return 2;
  }
  config.tcp_port = static_cast<u16>(port);
  config.obs = !no_obs;
  if (telemetry) {
    config.telemetry_dir = telemetry_dir.empty() ? "runs" : telemetry_dir;
  }

  try {
    serve::Server server(config);
    server.start();
    g_server = &server;
    struct sigaction sa = {};
    sa.sa_handler = on_signal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);

    // Readiness line on stdout: scripts and tests wait for it before
    // connecting (the port is kernel-assigned in --port 0 mode).
    if (!config.unix_path.empty()) {
      std::printf("[serve] listening on unix:%s\n",
                  config.unix_path.c_str());
    } else {
      std::printf("[serve] listening on tcp:127.0.0.1:%u\n",
                  server.tcp_port());
    }
    std::fflush(stdout);

    server.wait_until_stop_requested();
    server.stop();
    g_server = nullptr;
    std::printf("[serve] shut down cleanly\n");
    return 0;
  } catch (const SimError& e) {
    std::fprintf(stderr, "hulkv-serve: %s\n", e.what());
    return 1;
  }
}
