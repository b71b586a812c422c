// serve_mixed: an in-process hulkv::serve::Server (default workers) on a
// Unix socket and one closed-loop client connection, as the daemon's
// callers (sweep scripts, hulkv-loadgen) wait for each reply. A pass
// sends the catalogue's 20 points (5 workloads x {HyperRAM, DDR4} x {LLC
// on, off}) as no-cache kRun requests in a seeded order, each followed
// by a cached kRun hit, then one no-cache kSuite per memory config. The
// ops are the 20 no-cache requests: each forks a SoC from the warm pool,
// so snapshot restore, program preparation, the wire codec, worker
// handoff and the result cache matter here and in no other workload.
//
// Traced passes also replay every point in-process, through
// Service::run_point and through the public steps of a fork, to split
// a request's host time by layer.
#include <algorithm>
#include <optional>
#include <string>

#include "batch/batch.hpp"
#include "common/rng.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "telemetry/json.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace hulkv;
using serve::MsgType;
using serve::PointParams;
using serve::Request;
using serve::Response;
using serve::ResultRow;
using serve::Status;

/// A warm entry captured the way serve::WarmPool builds one.
struct Warm {
  core::SocConfig config;
  serve::WorkloadSetup setup;
  batch::SocSnapshot snapshot;
};

ResultRow row_of(const PointParams& p, u64 cycles, u64 instret,
                 u64 exit_code) {
  return {p.workload, p.mem_kind, p.llc, cycles, instret, exit_code};
}

std::string describe(const Response& r, const std::vector<ResultRow>& want) {
  if (r.status != Status::kOk) {
    return std::string("status ") + serve::status_name(r.status);
  }
  return r.rows == want ? "" : "rows differ from the in-process reference";
}

class ServeMixed final : public Workload {
 public:
  ServeMixed(u64 seed, std::string socket_path, bool traced)
      : seed_(seed), socket_path_(std::move(socket_path)), traced_(traced) {
    for (u8 w = 0; w < serve::workload_count(); ++w) {
      for (const u8 mem : {static_cast<u8>(core::MainMemoryKind::kHyperRam),
                           static_cast<u8>(core::MainMemoryKind::kDdr4)}) {
        for (const u8 llc : {u8{1}, u8{0}}) points_.push_back({w, mem, llc});
      }
    }
    for (std::size_t i = 0; i < 4; ++i) suites_.push_back(points_[i]);
  }

  ~ServeMixed() override { teardown(); }

  void setup(Recorder& rec) override {
    // Reference rows from cold boots: setup, warm run, timed run.
    reference_.clear();
    for (std::uint32_t i = 0; i < points_.size(); ++i) {
      Recorder::Span span(rec, "setup.reference", i);
      const PointParams& p = points_[i];
      core::HulkVSoc soc(serve::point_config(p));
      const serve::WorkloadSetup s = serve::setup_workload(p.workload, soc);
      kernels::run_host_program(soc, s.program.words, s.args);
      const kernels::HostRun r =
          kernels::run_host_program(soc, s.program.words, s.args);
      reference_.push_back(row_of(p, r.cycles, r.instret, r.exit_code));
    }

    {
      Recorder::Span span(rec, "setup.server", 0);
      serve::ServerConfig config;
      config.unix_path = socket_path_;
      server_.emplace(config);
      server_->start();
      client_.emplace(serve::Client::connect_unix(socket_path_));
    }
    // Cache fill; the misses build the server's warm pool.
    for (std::uint32_t i = 0; i < points_.size(); ++i) {
      Recorder::Span span(rec, "setup.fill", i);
      const std::string error =
          describe(call(MsgType::kRun, 0, points_[i]), {reference_[i]});
      HULKV_CHECK(error.empty(), "serve cache fill: " + error);
    }
    cache_seen_ = cache_counters();
    if (!traced_) return;

    // State of the traced passes' in-process replay.
    service_.emplace();
    warm_.clear();
    for (std::uint32_t i = 0; i < points_.size(); ++i) {
      Recorder::Span span(rec, "setup.replay", i);
      const PointParams& p = points_[i];
      service_->run_point(p, true, nullptr);  // builds its warm entry
      Warm w{serve::point_config(p), {}, {}};
      core::HulkVSoc soc(w.config);
      w.setup = serve::setup_workload(p.workload, soc);
      kernels::run_host_program(soc, w.setup.program.words, w.setup.args);
      {
        Recorder::Span capture(rec, "snapshot.capture", i);
        w.snapshot = batch::SocSnapshot::capture(soc);
      }
      warm_.push_back(std::move(w));
    }
  }

  void teardown() override {
    client_.reset();
    if (server_) server_->stop();
    server_.reset();
    service_.reset();
    warm_.clear();
  }

  std::size_t op_count() const override { return points_.size(); }

  std::string unit_name(std::uint32_t unit) const override {
    const bool suite = unit >= points_.size();
    const PointParams& p =
        suite ? suites_[unit - points_.size()] : points_[unit];
    const std::string config =
        std::string(p.mem_kind == 0 ? "hyper" : "ddr4") +
        (p.llc != 0 ? "_llc" : "");
    return suite ? "suite/" + config
                 : std::string(serve::workload_name(p.workload)) + "/" +
                       config;
  }

  std::vector<std::size_t> pass_order(std::uint32_t pass) override {
    std::vector<std::size_t> order(points_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    Xoshiro256 rng(input_seed(0x5E7E, seed_) + pass);
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.next_below(i + 1)]);
    }
    return order;
  }

  OpRun run_op(std::size_t op, Recorder& rec) override {
    const auto unit = static_cast<std::uint32_t>(op);
    const u64 cpu0 = rec.tracing() ? process_cpu_ns() : 0;
    {
      Recorder::Span span(rec, "serve.request", unit);
      last_ = call(MsgType::kRun, serve::kFlagNoCache, points_[op]);
    }
    if (rec.tracing()) {
      rec.sample(unit, "serve.request_cpu",
                 static_cast<double>(process_cpu_ns() - cpu0));
    }
    if (last_.rows.size() != 1) return {};
    return {last_.rows[0].instret, last_.rows[0].cycles};
  }

  std::string check_op(std::size_t op) override {
    return describe(last_, {reference_[op]});
  }

  void after_op(std::size_t op, Recorder& rec, Tally& tally) override {
    const auto unit = static_cast<std::uint32_t>(op);
    Response hit;
    {
      Recorder::Span span(rec, "serve.hit", unit);
      hit = call(MsgType::kRun, 0, points_[op]);
    }
    tally.record("hit " + unit_name(unit), describe(hit, {reference_[op]}));
    if (rec.tracing()) replay(op, rec, tally);
  }

  void after_pass(Recorder& rec, Tally& tally) override {
    for (std::size_t s = 0; s < suites_.size(); ++s) {
      const auto unit = static_cast<std::uint32_t>(points_.size() + s);
      Response r;
      {
        Recorder::Span span(rec, "serve.suite", unit);
        r = call(MsgType::kSuite, serve::kFlagNoCache, suites_[s]);
      }
      std::vector<ResultRow> want;
      for (const PointParams& p : serve::expand_points(
               {MsgType::kSuite, 0, 0, 0, 0, suites_[s]})) {
        want.push_back(reference_[index_of(p)]);
      }
      tally.record(unit_name(unit), describe(r, want));
    }
    // Only the pass's cached hits look the cache up: no-cache requests
    // and suites bypass it.
    const CacheCounters now = cache_counters();
    rec.count("serve.cache_hits",
              static_cast<double>(now.hits - cache_seen_.hits));
    rec.count("serve.cache_lookups",
              static_cast<double>(now.hits + now.misses - cache_seen_.hits -
                                  cache_seen_.misses));
    cache_seen_ = now;
  }

  double nominal_pass_seconds() const override { return 0.22; }

 private:
  Response call(MsgType type, u8 flags, const PointParams& point) {
    Request req;
    req.type = type;
    req.flags = flags;
    req.request_id = ++request_id_;
    req.point = point;
    Response r = client_->call(req);
    HULKV_CHECK(r.request_id == req.request_id,
                "serve: response answers another request");
    return r;
  }

  struct CacheCounters {
    u64 hits = 0;
    u64 misses = 0;
  };

  CacheCounters cache_counters() const {
    const telemetry::json::Value stats =
        telemetry::json::parse(server_->stats_json());
    const auto get = [&](const char* key) {
      const telemetry::json::Value* v = stats.find(key);
      HULKV_CHECK(v != nullptr, std::string("serve stats lack ") + key);
      return static_cast<u64>(v->as_number());
    };
    return {get("cache_hits"), get("cache_misses")};
  }

  std::size_t index_of(const PointParams& p) const {
    const auto it = std::find(points_.begin(), points_.end(), p);
    HULKV_CHECK(it != points_.end(), "serve: point outside the catalogue");
    return static_cast<std::size_t>(it - points_.begin());
  }

  /// In-process replay of a point: Service::run_point, then the public
  /// steps of a warm fork.
  void replay(std::size_t op, Recorder& rec, Tally& tally) {
    const auto unit = static_cast<std::uint32_t>(op);
    const PointParams& p = points_[op];
    serve::Service::PointResult result;
    {
      Recorder::Span span(rec, "serve.run_point", unit);
      result = service_->run_point(p, true, nullptr);
    }
    tally.record("run_point " + unit_name(unit),
                 result.status != Status::kOk        ? "status not ok"
                 : result.row != reference_[op] ? "row differs"
                                                : "");

    const Warm& w = warm_[op];
    host::Cva6Core::RunResult run;
    SocCounters before, after;
    {
      Recorder::Span fork(rec, "serve.fork", unit);
      std::optional<core::HulkVSoc> soc;
      {
        Recorder::Span span(rec, "core.soc_new", unit);
        soc.emplace(w.config);
      }
      {
        Recorder::Span span(rec, "snapshot.restore", unit);
        w.snapshot.restore_into(*soc);
      }
      before = read_counters(*soc);
      {
        Recorder::Span span(rec, "kernels.prepare", unit);
        kernels::prepare_host_program(*soc, w.setup.program.words,
                                      w.setup.args);
      }
      {
        Recorder::Span span(rec, "host.run", unit);
        run = soc->host().run();
      }
      after = read_counters(*soc);
    }
    tally.record("fork " + unit_name(unit),
                 row_of(p, run.cycles, run.instret, run.exit_code) ==
                         reference_[op]
                     ? ""
                     : "forked run differs from the reference");
    rec.count("host.instret", static_cast<double>(run.instret));
    rec.count("snapshot.bytes", static_cast<double>(w.snapshot.size_bytes()));
    count_delta(rec, before, after);
  }

  u64 seed_;
  std::string socket_path_;
  bool traced_;  // the run has traced passes, which replay in-process
  std::vector<PointParams> points_;
  std::vector<PointParams> suites_;  // one per memory config
  std::vector<ResultRow> reference_;
  std::optional<serve::Server> server_;
  std::optional<serve::Client> client_;
  std::optional<serve::Service> service_;
  std::vector<Warm> warm_;
  Response last_;
  u64 request_id_ = 0;
  CacheCounters cache_seen_;  // server cache counters at the last pass end
};

}  // namespace

std::unique_ptr<Workload> make_serve_mixed(std::uint64_t seed,
                                           std::string socket_path,
                                           bool traced) {
  return std::make_unique<ServeMixed>(seed, std::move(socket_path), traced);
}

}  // namespace perfbench
