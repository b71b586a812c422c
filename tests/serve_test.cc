// hulkv::serve tests (DESIGN.md §16): wire-protocol codec strictness,
// cache/warm-fork determinism (hit bytes == miss bytes, worker-count
// independence, warm-fork rows == cold-boot rows), admission control
// (quota, queue, deadline), graceful shutdown, and the hulkv-serve /
// hulkv-loadgen binaries end to end.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/soc.hpp"
#include "kernels/kernel.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace hulkv;
using namespace hulkv::serve;

#ifndef HULKV_TOOLS_DIR
#define HULKV_TOOLS_DIR "."
#endif

// ---------------------------------------------------------------------
// Codec round-trips and strict rejection.

Request sample_request() {
  Request req;
  req.type = MsgType::kSweep;
  req.flags = kFlagNoCache;
  req.client_id = 7;
  req.request_id = 0x1122334455667788ull;
  req.deadline_ms = 250;
  req.point = {2, 1, 0};
  return req;
}

Response sample_response() {
  Response resp;
  resp.type = MsgType::kSweep;
  resp.status = Status::kOk;
  resp.request_id = 0x1122334455667788ull;
  resp.rows = {{2, 1, 0, 1000, 500, 0}, {2, 0, 1, 2000, 500, 3}};
  resp.text = "";
  return resp;
}

TEST(ServeProtocol, RequestRoundTrip) {
  const Request req = sample_request();
  EXPECT_EQ(decode_request(encode_request(req)), req);
}

TEST(ServeProtocol, ResponseRoundTrip) {
  const Response resp = sample_response();
  EXPECT_EQ(decode_response(encode_response(resp)), resp);

  Response stats;
  stats.type = MsgType::kStats;
  stats.text = "{\"requests\":3}";
  EXPECT_EQ(decode_response(encode_response(stats)), stats);
}

TEST(ServeProtocol, EveryTruncationIsRejected) {
  const std::vector<u8> req = encode_request(sample_request());
  for (size_t n = 0; n < req.size(); ++n) {
    EXPECT_THROW(decode_request({req.begin(), req.begin() + n}), SimError)
        << "prefix length " << n;
  }
  const std::vector<u8> resp = encode_response(sample_response());
  for (size_t n = 0; n < resp.size(); ++n) {
    EXPECT_THROW(decode_response({resp.begin(), resp.begin() + n}),
                 SimError)
        << "prefix length " << n;
  }
}

TEST(ServeProtocol, TrailingBytesAreRejected) {
  std::vector<u8> req = encode_request(sample_request());
  req.push_back(0);
  EXPECT_THROW(decode_request(req), SimError);
  std::vector<u8> resp = encode_response(sample_response());
  resp.push_back(0);
  EXPECT_THROW(decode_response(resp), SimError);
}

TEST(ServeProtocol, BadEnumsFlagsVersionAndReservedAreRejected) {
  {
    std::vector<u8> bytes = encode_request(sample_request());
    bytes[0] ^= 0xff;  // protocol version
    EXPECT_THROW(decode_request(bytes), SimError);
  }
  {
    std::vector<u8> bytes = encode_request(sample_request());
    bytes[2] = kNumMsgTypes;  // unknown message type
    EXPECT_THROW(decode_request(bytes), SimError);
  }
  {
    std::vector<u8> bytes = encode_request(sample_request());
    bytes[3] = 0x80;  // unknown flag bit
    EXPECT_THROW(decode_request(bytes), SimError);
  }
  {
    std::vector<u8> bytes = encode_request(sample_request());
    bytes.back() = 1;  // reserved byte must be zero
    EXPECT_THROW(decode_request(bytes), SimError);
  }
  {
    std::vector<u8> bytes = encode_response(sample_response());
    bytes[3] = 200;  // unknown status
    EXPECT_THROW(decode_response(bytes), SimError);
  }
}

TEST(ServeProtocol, FramingRejectsGarbageAndDetectsCleanEof) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);

  // A valid frame round-trips.
  const std::vector<u8> payload = encode_request(sample_request());
  write_frame(fds[1], payload);
  std::vector<u8> got;
  ASSERT_TRUE(read_frame(fds[0], got));
  EXPECT_EQ(got, payload);

  // Bad magic is rejected.
  const u8 junk[8] = {'J', 'U', 'N', 'K', 0, 0, 0, 0};
  ASSERT_EQ(write(fds[1], junk, sizeof(junk)),
            static_cast<ssize_t>(sizeof(junk)));
  EXPECT_THROW(read_frame(fds[0], got), SimError);
  close(fds[0]);
  close(fds[1]);

  // Oversized length is rejected before any allocation.
  ASSERT_EQ(pipe(fds), 0);
  u8 oversized[8];
  const u32 magic = kFrameMagic, huge = kMaxFrameBytes + 1;
  memcpy(oversized, &magic, 4);
  memcpy(oversized + 4, &huge, 4);
  ASSERT_EQ(write(fds[1], oversized, 8), 8);
  EXPECT_THROW(read_frame(fds[0], got), SimError);
  close(fds[0]);
  close(fds[1]);

  // Clean EOF at a frame boundary returns false; EOF mid-frame throws.
  ASSERT_EQ(pipe(fds), 0);
  close(fds[1]);
  EXPECT_FALSE(read_frame(fds[0], got));
  close(fds[0]);

  ASSERT_EQ(pipe(fds), 0);
  u8 partial[4];
  memcpy(partial, &magic, 4);
  ASSERT_EQ(write(fds[1], partial, 4), 4);
  close(fds[1]);
  EXPECT_THROW(read_frame(fds[0], got), SimError);
  close(fds[0]);
}

TEST(ServeProtocol, ExpandPointsShapes) {
  Request req;
  req.type = MsgType::kRun;
  req.point = {1, 2, 0};
  EXPECT_EQ(expand_points(req),
            (std::vector<PointParams>{{1, 2, 0}}));

  req.type = MsgType::kSweep;
  req.point = {3, 0, 0};  // mem/llc ignored for sweeps
  const std::vector<PointParams> sweep = expand_points(req);
  // Fig. 8 column order: ddr4+llc, hyper+llc, ddr4, hyper.
  EXPECT_EQ(sweep, (std::vector<PointParams>{
                       {3, 1, 1}, {3, 0, 1}, {3, 1, 0}, {3, 0, 0}}));

  req.type = MsgType::kSuite;
  req.point = {0, 1, 1};
  const std::vector<PointParams> suite = expand_points(req);
  ASSERT_EQ(suite.size(), workload_count());
  for (u8 w = 0; w < workload_count(); ++w) {
    EXPECT_EQ(suite[w], (PointParams{w, 1, 1}));
  }

  req.type = MsgType::kPing;
  EXPECT_TRUE(expand_points(req).empty());

  req.type = MsgType::kRun;
  req.point = {workload_count(), 1, 1};
  EXPECT_THROW(expand_points(req), SimError);
  req.point = {0, 3, 1};
  EXPECT_THROW(expand_points(req), SimError);
  req.point = {0, 1, 2};
  EXPECT_THROW(expand_points(req), SimError);
}

// Metrics-plane requests (kMetrics / kTrace, DESIGN.md §17) carry no
// simulation payload: flags, deadline and the point must all be zero.
Request metrics_plane_request(MsgType type) {
  Request req;
  req.type = type;
  req.client_id = 4;
  req.request_id = 0xfeed;
  req.point = {0, 0, 0};
  return req;
}

TEST(ServeProtocol, MetricsPlaneRoundTripTruncationAndTrailing) {
  for (const MsgType type : {MsgType::kMetrics, MsgType::kTrace}) {
    const Request req = metrics_plane_request(type);
    const std::vector<u8> bytes = encode_request(req);
    EXPECT_EQ(decode_request(bytes), req);
    for (size_t n = 0; n < bytes.size(); ++n) {
      EXPECT_THROW(decode_request({bytes.begin(), bytes.begin() + n}),
                   SimError)
          << type_name(type) << " prefix length " << n;
    }
    std::vector<u8> trailing = bytes;
    trailing.push_back(0);
    EXPECT_THROW(decode_request(trailing), SimError) << type_name(type);

    // Metrics-plane ops expand to zero simulation points.
    EXPECT_TRUE(expand_points(req).empty()) << type_name(type);
  }
}

TEST(ServeProtocol, MetricsPlaneRejectsAnyPayload) {
  for (const MsgType type : {MsgType::kMetrics, MsgType::kTrace}) {
    const Request base = metrics_plane_request(type);
    Request bad = base;
    bad.flags = kFlagNoCache;
    EXPECT_THROW(decode_request(encode_request(bad)), SimError)
        << type_name(type) << " flags";
    bad = base;
    bad.deadline_ms = 1;
    EXPECT_THROW(decode_request(encode_request(bad)), SimError)
        << type_name(type) << " deadline";
    bad = base;
    bad.point.workload = 1;
    EXPECT_THROW(decode_request(encode_request(bad)), SimError)
        << type_name(type) << " workload";
    bad = base;
    bad.point.mem_kind = 1;
    EXPECT_THROW(decode_request(encode_request(bad)), SimError)
        << type_name(type) << " mem_kind";
    bad = base;
    bad.point.llc = 1;
    EXPECT_THROW(decode_request(encode_request(bad)), SimError)
        << type_name(type) << " llc";
  }
}

// ---------------------------------------------------------------------
// Cache keys.

TEST(ServeCache, KeysSeparateEveryAxis) {
  const CacheKey base = point_cache_key({0, 1, 1});
  EXPECT_EQ(point_cache_key({0, 1, 1}), base);
  EXPECT_NE(point_cache_key({1, 1, 1}).program_digest,
            base.program_digest);
  EXPECT_NE(point_cache_key({0, 0, 1}).config_fingerprint,
            base.config_fingerprint);
  EXPECT_NE(point_cache_key({0, 1, 0}).config_fingerprint,
            base.config_fingerprint);
  EXPECT_NE(point_cache_key({0, 0, 1}).params_digest, base.params_digest);
}

TEST(ServeCache, LookupInsertAndCounters) {
  ResultCache cache;
  const CacheKey key = point_cache_key({0, 1, 1});
  ResultRow row;
  EXPECT_FALSE(cache.lookup(key, &row));
  cache.insert(key, {0, 1, 1, 123, 45, 6});
  ASSERT_TRUE(cache.lookup(key, &row));
  EXPECT_EQ(row.cycles, 123u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.entries(), 1u);
}

// ---------------------------------------------------------------------
// In-process server end-to-end.

std::string test_socket_path(const char* tag) {
  return "/tmp/hulkv_serve_test_" + std::to_string(getpid()) + "_" + tag +
         ".sock";
}

/// Poll a fresh stats connection until the server has admitted at
/// least `n` requests — lets shutdown tests order "request admitted"
/// before "stop requested" without racing the reader thread.
void wait_for_admitted(const std::string& socket_path, double n) {
  Request stats;
  stats.type = MsgType::kStats;
  for (int i = 0; i < 2000; ++i) {
    Client probe = Client::connect_unix(socket_path);
    const Response resp = probe.call(stats);
    const telemetry::json::Value v = telemetry::json::parse(resp.text);
    if (v.find("admitted")->as_number() >= n) return;
    usleep(1000);
  }
  FAIL() << "request was never admitted";
}

ServerConfig small_config(const std::string& socket_path) {
  ServerConfig config;
  config.unix_path = socket_path;
  config.workers = 2;
  config.queue_capacity = 64;
  config.client_quota = 8;
  return config;
}

/// Raw-frame exchange: returns the exact response payload bytes, which
/// the byte-identity tests compare directly.
std::vector<u8> raw_call(Client& client, const Request& req) {
  write_frame(client.fd(), encode_request(req));
  std::vector<u8> payload;
  EXPECT_TRUE(read_frame(client.fd(), payload));
  return payload;
}

TEST(ServeServer, PingAndStats) {
  const std::string path = test_socket_path("ping");
  Server server(small_config(path));
  server.start();
  {
    Client client = Client::connect_unix(path);
    Request req;
    req.type = MsgType::kPing;
    req.request_id = 42;
    const Response resp = client.call(req);
    EXPECT_EQ(resp.status, Status::kOk);
    EXPECT_EQ(resp.request_id, 42u);
    EXPECT_TRUE(resp.rows.empty());

    req.type = MsgType::kStats;
    const Response stats = client.call(req);
    EXPECT_EQ(stats.status, Status::kOk);
    const telemetry::json::Value v = telemetry::json::parse(stats.text);
    EXPECT_DOUBLE_EQ(v.find("requests")->as_number(), 2.0);
    EXPECT_NE(v.find("cache_hits"), nullptr);
    EXPECT_NE(v.find("queued_points"), nullptr);
    // v17: per-workload breakdown (empty object before any point ran).
    EXPECT_NE(v.find("per_workload"), nullptr);
  }
  server.stop();
}

TEST(ServeServer, CacheHitBytesEqualMissBytes) {
  const std::string path = test_socket_path("cache");
  Server server(small_config(path));
  server.start();
  {
    Client client = Client::connect_unix(path);
    Request req;
    req.type = MsgType::kRun;
    req.client_id = 1;
    req.request_id = 99;
    req.point = {0, 1, 1};
    const std::vector<u8> miss = raw_call(client, req);  // simulates
    const std::vector<u8> hit = raw_call(client, req);   // cache hit
    EXPECT_EQ(miss, hit);

    const Response decoded = decode_response(hit);
    EXPECT_EQ(decoded.status, Status::kOk);
    ASSERT_EQ(decoded.rows.size(), 1u);
    EXPECT_GT(decoded.rows[0].cycles, 0u);

    // kFlagNoCache re-simulates and still produces identical bytes
    // (the result is deterministic either way).
    req.flags = kFlagNoCache;
    EXPECT_EQ(raw_call(client, req), miss);
  }
  server.stop();
}

TEST(ServeServer, ResponseBytesIndependentOfWorkerCount) {
  Request req;
  req.type = MsgType::kSuite;
  req.client_id = 3;
  req.request_id = 1234;
  req.point = {0, 1, 1};

  std::vector<u8> bytes_by_workers[2];
  const u32 worker_counts[2] = {1, 3};
  for (int i = 0; i < 2; ++i) {
    const std::string path = test_socket_path("wk");
    ServerConfig config = small_config(path);
    config.workers = worker_counts[i];
    Server server(config);
    server.start();
    {
      Client client = Client::connect_unix(path);
      bytes_by_workers[i] = raw_call(client, req);
    }
    server.stop();
  }
  EXPECT_EQ(bytes_by_workers[0], bytes_by_workers[1]);
  const Response decoded = decode_response(bytes_by_workers[0]);
  EXPECT_EQ(decoded.status, Status::kOk);
  EXPECT_EQ(decoded.rows.size(), workload_count());
}

TEST(ServeServer, WarmForkRowsEqualColdBootRows) {
  const PointParams point = {1, 1, 1};  // fir on ddr4+llc

  // Cold-boot reference: the fig8 steady-state discipline — fresh SoC,
  // setup, warm run, timed run.
  core::HulkVSoc soc(point_config(point));
  const WorkloadSetup setup = setup_workload(point.workload, soc);
  kernels::run_host_program(soc, setup.program.words, setup.args);
  const kernels::HostRun cold =
      kernels::run_host_program(soc, setup.program.words, setup.args);

  const std::string path = test_socket_path("warm");
  Server server(small_config(path));
  server.start();
  {
    Client client = Client::connect_unix(path);
    Request req;
    req.type = MsgType::kRun;
    req.request_id = 5;
    req.point = point;
    const Response resp = client.call(req);
    ASSERT_EQ(resp.status, Status::kOk);
    ASSERT_EQ(resp.rows.size(), 1u);
    EXPECT_EQ(resp.rows[0].cycles, cold.cycles);
    EXPECT_EQ(resp.rows[0].instret, cold.instret);
    EXPECT_EQ(resp.rows[0].exit_code, cold.exit_code);
  }
  server.stop();
}

TEST(ServeServer, ZeroQuotaFastRejects) {
  const std::string path = test_socket_path("quota0");
  ServerConfig config = small_config(path);
  config.client_quota = 0;
  Server server(config);
  server.start();
  {
    Client client = Client::connect_unix(path);
    Request req;
    req.type = MsgType::kRun;
    req.request_id = 1;
    req.point = {0, 1, 1};
    const Response resp = client.call(req);
    EXPECT_EQ(resp.status, Status::kQuotaExceeded);
    EXPECT_TRUE(resp.rows.empty());

    // Pings are exempt from admission control.
    req.type = MsgType::kPing;
    EXPECT_EQ(client.call(req).status, Status::kOk);
  }
  server.stop();
}

TEST(ServeServer, InFlightQuotaRejectsDistinctly) {
  const std::string path = test_socket_path("quota");
  ServerConfig config = small_config(path);
  config.workers = 1;
  config.client_quota = 2;
  Server server(config);
  server.start();
  {
    Client client = Client::connect_unix(path);
    // Pipeline four requests; the single worker is busy for ms per
    // point while the reader admits/rejects in µs, so requests 3 and 4
    // exceed the in-flight quota of 2. Request 1 is a five-point suite,
    // which keeps its quota slot for tens of ms even when the reader is
    // descheduled between frames.
    for (u64 i = 1; i <= 4; ++i) {
      Request req;
      req.type = i == 1 ? MsgType::kSuite : MsgType::kRun;
      req.flags = kFlagNoCache;
      req.client_id = 9;
      req.request_id = i;
      req.point = {0, 1, 1};
      client.send(req);
    }
    client.shutdown_write();
    std::map<u64, Status> status_by_id;
    Response resp;
    while (client.recv(&resp)) status_by_id[resp.request_id] = resp.status;
    ASSERT_EQ(status_by_id.size(), 4u);
    EXPECT_EQ(status_by_id[1], Status::kOk);
    EXPECT_EQ(status_by_id[2], Status::kOk);
    EXPECT_EQ(status_by_id[3], Status::kQuotaExceeded);
    EXPECT_EQ(status_by_id[4], Status::kQuotaExceeded);
  }
  server.stop();
}

TEST(ServeServer, QueueOverflowFastRejects) {
  const std::string path = test_socket_path("queue");
  ServerConfig config = small_config(path);
  config.queue_capacity = 4;  // a suite is 5 points
  Server server(config);
  server.start();
  {
    Client client = Client::connect_unix(path);
    Request req;
    req.type = MsgType::kSuite;
    req.request_id = 77;
    req.point = {0, 1, 1};
    const Response resp = client.call(req);
    EXPECT_EQ(resp.status, Status::kQueueFull);
  }
  server.stop();
}

TEST(ServeServer, DeadlineExpiryCancelsCleanly) {
  const std::string path = test_socket_path("deadline");
  ServerConfig config = small_config(path);
  config.workers = 1;
  Server server(config);
  server.start();
  {
    Client client = Client::connect_unix(path);
    // A long request occupies the single worker...
    Request busy;
    busy.type = MsgType::kSuite;
    busy.flags = kFlagNoCache;
    busy.request_id = 1;
    busy.point = {0, 1, 1};
    client.send(busy);
    // ... so this one's 1 ms deadline expires while it is queued.
    Request urgent;
    urgent.type = MsgType::kRun;
    urgent.flags = kFlagNoCache;
    urgent.request_id = 2;
    urgent.deadline_ms = 1;
    urgent.point = {1, 1, 1};
    client.send(urgent);
    client.shutdown_write();

    std::map<u64, Response> by_id;
    Response resp;
    while (client.recv(&resp)) by_id[resp.request_id] = resp;
    ASSERT_EQ(by_id.size(), 2u);
    EXPECT_EQ(by_id[1].status, Status::kOk);
    EXPECT_EQ(by_id[1].rows.size(), workload_count());
    EXPECT_EQ(by_id[2].status, Status::kDeadlineExpired);
    EXPECT_TRUE(by_id[2].rows.empty());
  }
  server.stop();
}

TEST(ServeServer, MalformedPayloadRejectedConnectionSurvives) {
  const std::string path = test_socket_path("garbage");
  Server server(small_config(path));
  server.start();
  {
    Client client = Client::connect_unix(path);
    // Valid framing, garbage payload: kBadRequest, connection stays up.
    write_frame(client.fd(), {0xde, 0xad, 0xbe, 0xef});
    Response resp;
    ASSERT_TRUE(client.recv(&resp));
    EXPECT_EQ(resp.status, Status::kBadRequest);

    Request req;
    req.type = MsgType::kPing;
    req.request_id = 8;
    EXPECT_EQ(client.call(req).status, Status::kOk);

    // Semantically invalid params also reject without killing the
    // connection.
    req.type = MsgType::kRun;
    req.request_id = 9;
    req.point = {workload_count(), 1, 1};
    EXPECT_EQ(client.call(req).status, Status::kBadRequest);
    req.request_id = 10;
    req.point = {0, 1, 1};
    EXPECT_EQ(client.call(req).status, Status::kOk);
  }
  server.stop();
}

TEST(ServeServer, GracefulStopDrainsInFlightWork) {
  const std::string path = test_socket_path("drain");
  ServerConfig config = small_config(path);
  config.workers = 2;
  config.drain_ms = 60000;  // generous: the suite must finish
  Server server(config);
  server.start();
  Client client = Client::connect_unix(path);
  Request req;
  req.type = MsgType::kSuite;
  req.flags = kFlagNoCache;
  req.request_id = 11;
  req.point = {0, 1, 1};
  client.send(req);
  wait_for_admitted(path, 1);
  // Stop while the suite is (very likely) still running: the drain
  // must finish it and deliver a complete kOk response.
  server.stop();
  Response resp;
  ASSERT_TRUE(client.recv(&resp));
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.rows.size(), workload_count());
}

TEST(ServeServer, HardCancelAnswersShuttingDown) {
  const std::string path = test_socket_path("cancel");
  ServerConfig config = small_config(path);
  config.workers = 1;
  config.drain_ms = 0;  // immediate hard cancel on stop
  Server server(config);
  server.start();
  Client client = Client::connect_unix(path);
  Request req;
  req.type = MsgType::kSuite;
  req.flags = kFlagNoCache;
  req.request_id = 21;
  req.point = {0, 1, 1};
  client.send(req);
  wait_for_admitted(path, 1);
  server.stop();
  Response resp;
  ASSERT_TRUE(client.recv(&resp));
  // Either the worker finished the suite before stop() engaged, or the
  // cancel path answered kShuttingDown — both are complete responses.
  EXPECT_TRUE(resp.status == Status::kShuttingDown ||
              resp.status == Status::kOk)
      << status_name(resp.status);
  if (resp.status == Status::kShuttingDown) {
    EXPECT_TRUE(resp.rows.empty());
  }
}

TEST(ServeServer, RequestsAfterStopRequestAreRejected) {
  const std::string path = test_socket_path("draining");
  Server server(small_config(path));
  server.start();
  Client client = Client::connect_unix(path);
  Request req;
  req.type = MsgType::kPing;
  req.request_id = 30;
  // Ping first so the connection is accepted and its reader is up
  // before the stop request (the acceptor stops accepting immediately).
  ASSERT_EQ(client.call(req).status, Status::kOk);
  server.request_stop();
  server.wait_until_stop_requested();
  req.type = MsgType::kRun;
  req.request_id = 31;
  req.point = {0, 1, 1};
  const Response resp = client.call(req);
  EXPECT_EQ(resp.status, Status::kShuttingDown);
  server.stop();
}

// ---------------------------------------------------------------------
// Observability plane (DESIGN.md §17): kMetrics exposition, kTrace
// drain-once semantics, stage-time conservation, slow-request log.

/// Prometheus text exposition -> {"name{labels}": value}, comments
/// skipped (the value is everything after the last space).
std::map<std::string, double> parse_prometheus(const std::string& text) {
  std::map<std::string, double> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] =
        std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

constexpr const char* kStageNames[] = {"admission",  "queue_wait",
                                       "cache_lookup", "warm_fork",
                                       "execute",    "response_write"};

/// Scrape kMetrics until `sample` reaches at least `want`. A request's
/// trace completes *after* its response bytes are written (the span
/// includes the send), so a client that just received its response may
/// scrape before the plane publishes it. `responses_total{outcome=
/// "ok"}` is bumped after the trace push, so polling it orders the
/// whole pipeline.
std::map<std::string, double> scrape_until(Client& client,
                                           const std::string& sample,
                                           double want) {
  std::map<std::string, double> m;
  for (int i = 0; i < 2000; ++i) {
    const Response resp =
        client.call(metrics_plane_request(MsgType::kMetrics));
    EXPECT_EQ(resp.status, Status::kOk);
    m = parse_prometheus(resp.text);
    if (m.at(sample) >= want) return m;
    usleep(1000);
  }
  ADD_FAILURE() << sample << " never reached " << want;
  return m;
}

TEST(ServeServer, MetricsScrapesAreMonotonicAndCountStages) {
  const std::string path = test_socket_path("metrics");
  Server server(small_config(path));
  server.start();
  {
    Client client = Client::connect_unix(path);
    Request run;
    run.type = MsgType::kRun;
    run.client_id = 1;
    run.request_id = 1;
    run.point = {0, 1, 1};
    ASSERT_EQ(client.call(run).status, Status::kOk);  // cache miss
    run.request_id = 2;
    ASSERT_EQ(client.call(run).status, Status::kOk);  // cache hit

    const std::map<std::string, double> m1 = scrape_until(
        client, "hulkv_serve_responses_total{outcome=\"ok\"}", 2.0);
    // Non-simulation requests were only the scrapes themselves (each
    // scrape counts itself, so two scrapes are strictly ordered).
    EXPECT_EQ(m1.at("hulkv_serve_requests_total"),
              2.0 + m1.at("hulkv_serve_metrics_scrapes_total"));
    EXPECT_EQ(m1.at("hulkv_serve_requests_admitted_total"), 2.0);
    EXPECT_EQ(m1.at("hulkv_serve_responses_total{outcome=\"ok\"}"), 2.0);
    EXPECT_GE(m1.at("hulkv_serve_metrics_scrapes_total"), 1.0);
    EXPECT_EQ(m1.at("hulkv_serve_cache_hits_total"), 1.0);
    EXPECT_EQ(m1.at("hulkv_serve_cache_misses_total"), 1.0);
    EXPECT_GE(m1.at("hulkv_serve_run_chunks_total"), 1.0);
    // Ring pushes cover metrics-plane responses too, hence >=.
    EXPECT_GE(m1.at("hulkv_serve_trace_completed_total"), 2.0);
    EXPECT_EQ(m1.at("hulkv_serve_workers"), 2.0);
    EXPECT_GE(m1.at("hulkv_serve_uptime_seconds"), 0.0);
    // The core invariant: every stage histogram counted exactly the
    // finalized simulation requests — zero-length stages included.
    for (const char* stage : kStageNames) {
      EXPECT_EQ(m1.at(std::string("hulkv_serve_stage_latency_ns_count{"
                                  "stage=\"") +
                      stage + "\"}"),
                2.0)
          << stage;
    }

    const Response second =
        client.call(metrics_plane_request(MsgType::kMetrics));
    ASSERT_EQ(second.status, Status::kOk);
    const std::map<std::string, double> m2 = parse_prometheus(second.text);
    for (const auto& [key, value] : m1) {
      if (key.find("_total") != std::string::npos) {
        EXPECT_GE(m2.at(key), value) << key;
      }
    }
    EXPECT_EQ(m2.at("hulkv_serve_metrics_scrapes_total"),
              m1.at("hulkv_serve_metrics_scrapes_total") + 1.0);

    // A metrics-plane request with a payload is kBadRequest on the
    // wire, and the connection survives.
    Request bad = metrics_plane_request(MsgType::kMetrics);
    bad.point = {0, 1, 1};
    write_frame(client.fd(), encode_request(bad));
    Response resp;
    ASSERT_TRUE(client.recv(&resp));
    EXPECT_EQ(resp.status, Status::kBadRequest);
    EXPECT_EQ(client.call(metrics_plane_request(MsgType::kMetrics)).status,
              Status::kOk);
  }
  server.stop();
}

// kStats and the kMetrics exposition render from one counter and gauge
// snapshot: after a cache miss and a hit, every counter both report
// agrees. The scrape is one request later than the kStats call, so the
// request total differs by that one request.
TEST(ServeServer, StatsAndMetricsAgreeOnEveryCounter) {
  const std::string path = test_socket_path("agree");
  Server server(small_config(path));
  server.start();
  {
    Client client = Client::connect_unix(path);
    Request run;
    run.type = MsgType::kRun;
    run.request_id = 1;
    run.point = {3, 1, 1};
    ASSERT_EQ(client.call(run).status, Status::kOk);  // cache miss
    run.request_id = 2;
    ASSERT_EQ(client.call(run).status, Status::kOk);  // cache hit
    scrape_until(client, "hulkv_serve_responses_total{outcome=\"ok\"}",
                 2.0);

    Request stats;
    stats.type = MsgType::kStats;
    stats.request_id = 3;
    const Response s = client.call(stats);
    ASSERT_EQ(s.status, Status::kOk);
    const Response scrape =
        client.call(metrics_plane_request(MsgType::kMetrics));
    ASSERT_EQ(scrape.status, Status::kOk);
    const telemetry::json::Value v = telemetry::json::parse(s.text);
    const std::map<std::string, double> m = parse_prometheus(scrape.text);

    // in_flight_points is left out: a worker lowers it only after it
    // has written the response.
    const std::pair<const char*, const char*> both[] = {
        {"admitted", "hulkv_serve_requests_admitted_total"},
        {"responses_ok", "hulkv_serve_responses_total{outcome=\"ok\"}"},
        {"rejects_bad_request",
         "hulkv_serve_responses_total{outcome=\"bad_request\"}"},
        {"rejects_queue_full",
         "hulkv_serve_responses_total{outcome=\"queue_full\"}"},
        {"rejects_quota",
         "hulkv_serve_responses_total{outcome=\"quota_exceeded\"}"},
        {"rejects_shutdown",
         "hulkv_serve_responses_total{outcome=\"shutting_down\"}"},
        {"deadline_expired",
         "hulkv_serve_responses_total{outcome=\"deadline_expired\"}"},
        {"internal_errors",
         "hulkv_serve_responses_total{outcome=\"internal_error\"}"},
        {"pings", "hulkv_serve_pings_total"},
        {"cache_hits", "hulkv_serve_cache_hits_total"},
        {"cache_misses", "hulkv_serve_cache_misses_total"},
        {"cache_entries", "hulkv_serve_cache_entries"},
        {"cold_builds", "hulkv_serve_cold_builds_total"},
        {"points_simulated", "hulkv_serve_points_simulated_total"},
        {"queued_points", "hulkv_serve_queue_depth"},
        {"max_queue_depth", "hulkv_serve_max_queue_depth"},
        {"workers", "hulkv_serve_workers"},
    };
    for (const auto& [key, sample] : both) {
      ASSERT_NE(v.find(key), nullptr) << key;
      ASSERT_EQ(m.count(sample), 1u) << sample;
      EXPECT_EQ(v.find(key)->as_number(), m.at(sample)) << key;
    }
    EXPECT_EQ(m.at("hulkv_serve_requests_total"),
              v.find("requests")->as_number() + 1.0);
    EXPECT_EQ(v.find("cache_hits")->as_number(), 1.0);
    EXPECT_EQ(v.find("cache_misses")->as_number(), 1.0);
  }
  server.stop();
}

TEST(ServeServer, TraceDrainsOnceWithClockAnchor) {
  const std::string path = test_socket_path("trace");
  Server server(small_config(path));
  server.start();
  {
    Client client = Client::connect_unix(path);
    Request run;
    run.type = MsgType::kRun;
    run.request_id = 7;
    run.point = {1, 1, 1};
    ASSERT_EQ(client.call(run).status, Status::kOk);
    // The trace publishes after the response bytes; wait for it.
    scrape_until(client, "hulkv_serve_responses_total{outcome=\"ok\"}",
                 1.0);

    const auto count_run_slices = [](const std::string& text,
                                     bool* anchor) {
      const telemetry::json::Value v = telemetry::json::parse(text);
      int slices = 0;
      *anchor = false;
      for (const telemetry::json::Value& e :
           v.find("traceEvents")->as_array()) {
        const telemetry::json::Value* ph = e.find("ph");
        if (ph != nullptr && ph->as_string() == "X" &&
            e.find_path("args.request_id")->as_number() == 7.0) {
          ++slices;
          EXPECT_EQ(e.find_path("args.outcome")->as_string(), "ok");
          EXPECT_DOUBLE_EQ(e.find_path("args.points")->as_number(), 1.0);
          EXPECT_GT(e.find("dur")->as_number(), 0.0);
        }
        const telemetry::json::Value* name = e.find("name");
        if (name != nullptr && name->as_string() == "clock_anchor") {
          *anchor = true;
          EXPECT_NE(e.find_path("args.wall_epoch_ns"), nullptr);
          EXPECT_NE(e.find_path("args.steady_anchor_ns"), nullptr);
        }
      }
      return slices;
    };

    const Response first =
        client.call(metrics_plane_request(MsgType::kTrace));
    ASSERT_EQ(first.status, Status::kOk);
    bool anchor = false;
    EXPECT_EQ(count_run_slices(first.text, &anchor), 1);
    EXPECT_TRUE(anchor);

    // The ring drains through a consumer cursor: a second kTrace never
    // re-reports the drained request (the anchor is always present).
    const Response second =
        client.call(metrics_plane_request(MsgType::kTrace));
    ASSERT_EQ(second.status, Status::kOk);
    EXPECT_EQ(count_run_slices(second.text, &anchor), 0);
    EXPECT_TRUE(anchor);
  }
  server.stop();
}

TEST(ServeServer, StageTimesConserveAcrossWorkerCounts) {
  // The same single-point request at 1 and 3 workers: identical
  // response bytes, and a span whose per-stage wall times sum to
  // within the request total (stages are disjoint intervals).
  Request run;
  run.type = MsgType::kRun;
  run.client_id = 2;
  run.request_id = 42;
  run.point = {0, 1, 1};

  std::vector<u8> bytes_by_workers[2];
  const u32 worker_counts[2] = {1, 3};
  for (int i = 0; i < 2; ++i) {
    const std::string path = test_socket_path("conserve");
    ServerConfig config = small_config(path);
    config.workers = worker_counts[i];
    Server server(config);
    server.start();
    {
      Client client = Client::connect_unix(path);
      bytes_by_workers[i] = raw_call(client, run);
      scrape_until(client, "hulkv_serve_responses_total{outcome=\"ok\"}",
                   1.0);

      const Response trace =
          client.call(metrics_plane_request(MsgType::kTrace));
      ASSERT_EQ(trace.status, Status::kOk);
      const telemetry::json::Value v = telemetry::json::parse(trace.text);
      int found = 0;
      for (const telemetry::json::Value& e :
           v.find("traceEvents")->as_array()) {
        const telemetry::json::Value* ph = e.find("ph");
        if (ph == nullptr || ph->as_string() != "X") continue;
        const telemetry::json::Value* args = e.find("args");
        if (args->find("request_id")->as_number() != 42.0) continue;
        ++found;
        const double total = args->find("total_ns")->as_number();
        const telemetry::json::Value* stages = args->find("stages_ns");
        double stage_sum = 0.0;
        for (const char* stage : kStageNames) {
          ASSERT_NE(stages->find(stage), nullptr) << stage;
          stage_sum += stages->find(stage)->as_number();
        }
        EXPECT_GT(total, 0.0);
        EXPECT_GT(stages->find("execute")->as_number(), 0.0);
        EXPECT_LE(stage_sum, total) << "workers " << worker_counts[i];
      }
      EXPECT_EQ(found, 1) << "workers " << worker_counts[i];
    }
    server.stop();
  }
  EXPECT_EQ(bytes_by_workers[0], bytes_by_workers[1]);
}

TEST(ServeServer, TracingOffKeepsBytesAndMetricsStillAnswer) {
  Request run;
  run.type = MsgType::kRun;
  run.request_id = 9;
  run.point = {2, 1, 1};

  std::vector<u8> bytes_by_obs[2];
  for (int i = 0; i < 2; ++i) {
    const std::string path = test_socket_path("obsoff");
    ServerConfig config = small_config(path);
    config.obs = i == 0;
    Server server(config);
    server.start();
    {
      Client client = Client::connect_unix(path);
      bytes_by_obs[i] = raw_call(client, run);
      if (!config.obs) {
        // kMetrics still answers with counters; the per-request plane
        // (stage histograms, trace ring) stays empty.
        const Response scrape =
            client.call(metrics_plane_request(MsgType::kMetrics));
        ASSERT_EQ(scrape.status, Status::kOk);
        const std::map<std::string, double> m =
            parse_prometheus(scrape.text);
        EXPECT_EQ(m.at("hulkv_serve_requests_admitted_total"), 1.0);
        EXPECT_EQ(m.at("hulkv_serve_trace_completed_total"), 0.0);
        EXPECT_EQ(m.at("hulkv_serve_stage_latency_ns_count{stage="
                       "\"execute\"}"),
                  0.0);
      }
    }
    server.stop();
  }
  EXPECT_EQ(bytes_by_obs[0], bytes_by_obs[1]);
}

TEST(ServeServer, SlowLogRecordsOffendersAsJsonLines) {
  const std::string path = test_socket_path("slow");
  const std::string log =
      "/tmp/hulkv_serve_slow_" + std::to_string(getpid()) + ".log";
  std::remove(log.c_str());
  ServerConfig config = small_config(path);
  config.slow_ms = 1;
  config.slow_log_path = log;
  Server server(config);
  server.start();
  {
    Client client = Client::connect_unix(path);
    Request req;
    req.type = MsgType::kSuite;
    req.flags = kFlagNoCache;
    req.request_id = 55;
    req.point = {0, 1, 1};
    // Five uncached points run for many milliseconds — far over the
    // 1 ms threshold.
    ASSERT_EQ(client.call(req).status, Status::kOk);
  }
  server.stop();

  std::ifstream in(log);
  ASSERT_TRUE(in.good()) << "slow log was not written";
  std::string line;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));
  const telemetry::json::Value v = telemetry::json::parse(line);
  const telemetry::json::Value* slow = v.find("slow_request");
  ASSERT_NE(slow, nullptr);
  EXPECT_DOUBLE_EQ(slow->find("request_id")->as_number(), 55.0);
  EXPECT_EQ(slow->find("type")->as_string(), "suite");
  EXPECT_EQ(slow->find("outcome")->as_string(), "ok");
  EXPECT_GE(slow->find("total_ns")->as_number(), 1e6);
  ASSERT_NE(slow->find("stages_ns"), nullptr);
  EXPECT_GT(slow->find("stages_ns")->find("execute")->as_number(), 0.0);
  EXPECT_DOUBLE_EQ(v.find("threshold_ns")->as_number(), 1e6);
  std::remove(log.c_str());
}

// ---------------------------------------------------------------------
// The daemon binary: SIGTERM on a busy server drains, flushes the
// manifest, and exits 0.

TEST(ServeDaemon, SigtermOnBusyServerFlushesManifestAndExitsZero) {
  const std::string dir =
      "/tmp/hulkv_serve_daemon_" + std::to_string(getpid());
  const std::string sock = dir + "/serve.sock";
  const std::string runs = dir + "/runs";
  std::string cmd = "mkdir -p " + dir;
  ASSERT_EQ(system(cmd.c_str()), 0);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const std::string binary = std::string(HULKV_TOOLS_DIR) + "/hulkv-serve";
    const std::string telemetry = "--telemetry=" + runs;
    execl(binary.c_str(), "hulkv-serve", "--socket", sock.c_str(),
          "--workers", "2", "--drain-ms", "60000", telemetry.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }

  // Wait for the socket, then put the server to work.
  bool up = false;
  for (int i = 0; i < 100 && !up; ++i) {
    usleep(100 * 1000);
    try {
      Client probe = Client::connect_unix(sock);
      Request ping;
      ping.type = MsgType::kPing;
      up = probe.call(ping).status == Status::kOk;
    } catch (const SimError&) {
    }
  }
  ASSERT_TRUE(up) << "daemon did not come up";

  Client client = Client::connect_unix(sock);
  Request req;
  req.type = MsgType::kSuite;
  req.flags = kFlagNoCache;
  req.request_id = 1;
  req.point = {0, 1, 1};
  client.send(req);  // in flight while the signal arrives
  wait_for_admitted(sock, 1);

  ASSERT_EQ(kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // The drained request was answered in full before exit.
  Response resp;
  ASSERT_TRUE(client.recv(&resp));
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.rows.size(), workload_count());

  // The manifest is valid JSON of kind "serve" with the serve metrics.
  std::ifstream in(runs + "/hulkv_serve.jsonl");
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));
  const telemetry::json::Value v = telemetry::json::parse(line);
  ASSERT_NE(v.find("kind"), nullptr);
  EXPECT_EQ(v.find("kind")->as_string(), "serve");
  EXPECT_EQ(v.find("bench")->as_string(), "hulkv_serve");
  // Metric names contain dots, so walk the tree with find() per level
  // rather than find_path().
  const telemetry::json::Value* metrics = v.find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(metrics->find("serve.admitted"), nullptr);
  EXPECT_DOUBLE_EQ(
      metrics->find("serve.admitted")->find("value")->as_number(), 1.0);
  ASSERT_NE(metrics->find("serve.responses_ok"), nullptr);
  EXPECT_DOUBLE_EQ(
      metrics->find("serve.responses_ok")->find("value")->as_number(), 1.0);
  EXPECT_NE(metrics->find("serve.cache_hit_rate"), nullptr);
  EXPECT_NE(metrics->find("serve.p50_ns"), nullptr);

  // Schema v4: a serve-kind manifest carries the per-request
  // aggregates from the observability plane.
  const telemetry::json::Value* serve_requests = v.find("serve_requests");
  ASSERT_NE(serve_requests, nullptr);
  const telemetry::json::Value* outcomes = serve_requests->find("outcomes");
  ASSERT_NE(outcomes, nullptr);
  EXPECT_DOUBLE_EQ(outcomes->find("ok")->as_number(), 1.0);
  const telemetry::json::Value* stages = serve_requests->find("stages");
  ASSERT_NE(stages, nullptr);
  // One finalized simulation request -> every stage counted once.
  for (const char* stage : kStageNames) {
    const telemetry::json::Value* summary = stages->find(stage);
    ASSERT_NE(summary, nullptr) << stage;
    EXPECT_DOUBLE_EQ(summary->find("count")->as_number(), 1.0) << stage;
  }

  cmd = "rm -rf " + dir;
  ASSERT_EQ(system(cmd.c_str()), 0);
}

// ---------------------------------------------------------------------
// The tools' command lines: an unknown flag or a bad value exits 2, and
// the error line names the program once.

/// Exit code and merged stdout+stderr of one shell command.
std::pair<int, std::string> run_command(const std::string& cmd) {
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return {-1, ""};
  std::string out;
  char buf[4096];
  size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  const int status = pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status),
          out};
}

// hulkv-loadgen checks every value before it connects: a port, type,
// workload, memory kind or LLC flag the daemon cannot take exits 2 with
// a message naming the flag (a point field is one byte on the wire, so
// an unchecked --workload 257 would run workload 1). The cases name a
// socket that does not exist, so that a tool which took a bad value
// anyway fails to connect instead of waiting.
TEST(ServeCli, LoadgenRejectsBadValuesBeforeConnecting) {
  const std::string loadgen =
      std::string(HULKV_TOOLS_DIR) + "/hulkv-loadgen --requests 1";
  const std::string sock = " --socket /nonexistent/hulkv.sock";
  // (arguments, text the message must name)
  const std::vector<std::pair<std::string, std::string>> cases = {
      {sock + " --port 70000", "--port 70000"},
      {sock + " --type bogus", "--type expects"},
      {sock + " --workload 257", "--workload expects"},
      {sock + " --workload " + std::to_string(workload_count()),
       "--workload expects"},
      {sock + " --mem 256", "--mem expects"},
      {sock + " --llc 257", "--llc expects"},
      {sock + " --mode sideways", "--mode expects"},
      {sock + " --connections -1", "--connections expects"},
      {"", "--socket PATH or --port N"},
  };
  for (const auto& [args, names] : cases) {
    const auto [rc, out] = run_command(loadgen + args);
    EXPECT_EQ(rc, 2) << args << "\n" << out;
    const std::string error = out.substr(0, out.find('\n'));
    EXPECT_NE(error.find(names), std::string::npos) << args << "\n" << out;
    EXPECT_NE(out.find("usage: hulkv-loadgen"), std::string::npos)
        << args << "\n" << out;
  }
}

TEST(ServeCli, UnknownFlagExitsTwoNamingTheProgramOnce) {
  for (const std::string tool : {"hulkv-serve", "hulkv-loadgen"}) {
    const auto [rc, out] =
        run_command(std::string(HULKV_TOOLS_DIR) + "/" + tool + " --bogus");
    EXPECT_EQ(rc, 2) << tool << "\n" << out;
    // The first line is the error; the usage text follows it.
    const std::string error = out.substr(0, out.find('\n'));
    EXPECT_NE(error.find("--bogus"), std::string::npos) << error;
    const size_t first = error.find(tool);
    ASSERT_NE(first, std::string::npos) << error;
    EXPECT_EQ(error.find(tool, first + 1), std::string::npos) << error;
  }
}

}  // namespace
