// Request-scoped tracing and the live metrics plane of the serve
// daemon (DESIGN.md §17).
//
// Every request that enters `hulkv::serve` carries a wall-clock stage
// breakdown from the reader thread to the response write:
//
//   admission      frame decode + admission control (reader thread)
//   queue_wait     point enqueue -> worker claim (summed over points)
//   cache_lookup   result-cache probe
//   warm_fork      warm-pool entry + snapshot restore + prepare
//   execute        chunked host run (summed over 1Mi-instr chunks)
//   response_write response encode + socket write
//
// Completed requests land as fixed-size `RequestTrace` records in a
// lock-free bounded ring (overwrite-oldest; drained by the kTrace op as
// pid 3 of trace/chrome_trace.hpp) and feed the daemon's one request
// latency histogram, the per-stage histograms and per-workload
// aggregates (the kMetrics exposition, the kStats per-workload JSON and
// the manifest's serve.p50_ns/p99_ns/p999_ns). Purely
// observational: nothing on the simulation path reads
// observability state, so response bytes stay byte-identical at any
// worker count with the plane on or off. Cheap-when-disabled, like
// hulkv::telemetry: without a StageClock, Service::run_point reads no
// clock (pinned by observation_off_test's ServeObsOff cases).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "telemetry/histogram.hpp"

namespace hulkv::serve::obs {

/// Pipeline stages of one request, in pipeline order (rendering order
/// of the exposition, the trace args and the manifest section).
enum class Stage : u8 {
  kAdmission = 0,
  kQueueWait,
  kCacheLookup,
  kWarmFork,
  kExecute,
  kResponseWrite,
};
inline constexpr size_t kNumStages = 6;

/// Stable lowercase stage name ("admission", "queue_wait", ...).
const char* stage_name(Stage stage);

/// RequestTrace::type value of a frame that failed request decoding
/// (the request's real type is unknowable; the reject is still traced).
inline constexpr u8 kUnknownType = 0xff;

/// Per-point stage clock filled by Service::run_point. Passing nullptr
/// disables all clock reads (the tracing-off dispatch path).
struct StageClock {
  u64 cache_lookup_ns = 0;
  u64 warm_fork_ns = 0;
  u64 execute_ns = 0;
  u32 chunks = 0;  // 1Mi-instr run segments executed
  bool cache_hit = false;
};

/// One answered request: identity, admission outcome, and the stage
/// breakdown. Stage times are summed across the request's points, so
/// with one worker they nest inside [start_ns, start_ns + total_ns];
/// with N workers points overlap and only per-stage sums are meaningful.
struct RequestTrace {
  u64 request_id = 0;
  u32 client_id = 0;
  u8 type = 0;      // MsgType value (kUnknownType for undecodable frames)
  u8 status = 0;    // Status value: the admission/final outcome
  u8 workload = 0;  // request's workload field (suite: first point's)
  u8 flags = 0;
  u32 points = 0;   // simulation points (0 for inline ops and rejects)
  u32 chunks = 0;
  u32 cache_hits = 0;
  u64 start_ns = 0;  // arrival, steady ns relative to the plane anchor
  u64 total_ns = 0;  // arrival -> response written
  u64 stage_ns[kNumStages] = {};
};

/// Words one RequestTrace packs into (the ring's slot payload).
inline constexpr size_t kTraceWords = 6 + kNumStages;

/// Lock-free bounded MPSC ring of completed RequestTrace records.
///
/// Writers claim a monotonically increasing sequence number and publish
/// into slot (seq % capacity) under a per-slot tag (seqlock discipline:
/// odd while writing, even == 2*(seq+1) when published); the payload
/// itself is relaxed-atomic words, so concurrent overwrite can never
/// tear a drained record — a reader that observes a tag change mid-copy
/// discards the slot. Overwrite-oldest: when producers lap an undrained
/// slot the old record is lost and counted in dropped(). drain()
/// returns the undrained suffix in completion order.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity);

  void push(const RequestTrace& trace);
  /// Records completed since the previous drain, oldest first.
  std::vector<RequestTrace> drain();

  size_t capacity() const { return mask_ + 1; }
  u64 completed() const { return head_.load(std::memory_order_relaxed); }
  u64 dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  struct Slot {
    std::atomic<u64> tag{0};
    std::atomic<u64> words[kTraceWords] = {};
  };

  std::unique_ptr<Slot[]> slots_;
  size_t mask_;
  std::atomic<u64> head_{0};
  std::atomic<u64> dropped_{0};
  std::mutex drain_mu_;  // single-consumer side
  u64 cursor_ = 0;       // first undrained sequence number
};

/// Monotonic counters the exposition renders (assembled by the server
/// from its admission/cache counters — single source of truth, so the
/// kStats JSON and the kMetrics exposition can never disagree).
struct Counters {
  u64 requests = 0;
  u64 admitted = 0;
  u64 responses_ok = 0;
  u64 rejects_bad_request = 0;
  u64 rejects_queue_full = 0;
  u64 rejects_quota = 0;
  u64 rejects_shutdown = 0;
  u64 deadline_expired = 0;
  u64 internal_errors = 0;
  u64 pings = 0;
  u64 metrics_served = 0;
  u64 traces_served = 0;
  u64 cache_hits = 0;
  u64 cache_misses = 0;
  u64 points_simulated = 0;
  u64 cold_builds = 0;
};

/// Point-in-time gauges (queue/in-flight under the server's mutex).
struct Gauges {
  u64 queued_points = 0;
  u64 in_flight_points = 0;
  u64 max_queue_depth = 0;
  u64 cache_entries = 0;
  u32 workers = 0;
  double utilization = 0.0;  // in-flight points / workers, clamped to 1
  double uptime_s = 0.0;
};

/// The per-server observability plane: stage histograms, per-workload
/// aggregates, the trace ring, and the slow-request log.
class ServeObs {
 public:
  struct Config {
    bool enabled = true;
    size_t ring_capacity = 512;
    u64 slow_threshold_ns = 0;   // 0 = slow log off
    std::string slow_log_path;   // empty = stderr
  };

  explicit ServeObs(const Config& config);
  ~ServeObs();
  ServeObs(const ServeObs&) = delete;
  ServeObs& operator=(const ServeObs&) = delete;

  /// The only check the disabled dispatch path performs.
  bool enabled() const { return enabled_; }

  /// Steady/wall clock pair captured at construction: RequestTrace
  /// start_ns is relative to steady_anchor_ns(), and the kTrace export
  /// carries both as its clock_anchor (trace/chrome_trace.hpp), so
  /// serve spans correlate with the simulated-time track.
  u64 steady_anchor_ns() const { return steady_anchor_ns_; }
  u64 wall_anchor_ns() const { return wall_anchor_ns_; }

  /// Record one completed simulation point (per-workload aggregates).
  void note_point(u8 workload, const StageClock& clock, u64 cycles);

  /// Record one answered request: ring push, outcome-independent
  /// request (arrival -> response written) and stage histograms
  /// (simulation requests only, so each count is the number of
  /// finalized requests), and the slow-request log.
  void complete(const RequestTrace& trace);

  /// Prometheus text exposition (the kMetrics payload).
  std::string render_prometheus(const Counters& counters,
                                const Gauges& gauges) const;

  /// Perfetto-loadable trace of the undrained completed requests (the
  /// kTrace payload). Draining: a record is returned exactly once.
  std::string render_trace_json();

  /// Extended kStats member: {"<workload>":{"points":..,...},...}.
  std::string per_workload_json() const;

  telemetry::HistogramData request_histogram() const {
    return request_hist_.snapshot();
  }
  telemetry::HistogramData stage_histogram(Stage stage) const {
    return stage_hist_[static_cast<size_t>(stage)].snapshot();
  }
  u64 run_chunks() const { return run_chunks_.load(); }
  const TraceRing& ring() const { return ring_; }

 private:
  struct WorkloadAgg {
    std::atomic<u64> points{0};
    std::atomic<u64> cache_hits{0};
    std::atomic<u64> execute_ns{0};
    std::atomic<u64> cycles{0};
  };
  static constexpr size_t kMaxWorkloads = 16;

  void write_slow_log(const RequestTrace& trace);

  bool enabled_ = true;
  u64 steady_anchor_ns_ = 0;
  u64 wall_anchor_ns_ = 0;
  u64 slow_threshold_ns_ = 0;

  telemetry::AtomicHistogram request_hist_;
  telemetry::AtomicHistogram stage_hist_[kNumStages];
  WorkloadAgg workload_agg_[kMaxWorkloads];
  std::atomic<u64> run_chunks_{0};
  std::atomic<u64> slow_requests_{0};
  TraceRing ring_;

  std::mutex slow_mu_;
  std::string slow_log_path_;
  void* slow_file_ = nullptr;  // FILE*; lazily opened, nullptr = stderr
};

/// One-line JSON object of a trace's stage breakdown (the slow log
/// line body and the test-facing format).
std::string trace_json_object(const RequestTrace& trace);

}  // namespace hulkv::serve::obs
