#include "serve/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "serve/workload.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/chrome_trace.hpp"

namespace hulkv::serve::obs {

namespace {

u64 wall_epoch_now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

size_t round_up_pow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

const char* safe_workload_name(u8 id) {
  return id < workload_count() ? workload_name(id) : "?";
}

const char* trace_type_name(u8 type) {
  if (type == kUnknownType) return "unknown";
  return type < kNumMsgTypes ? type_name(static_cast<MsgType>(type)) : "?";
}

void pack(const RequestTrace& t, u64 words[kTraceWords]) {
  words[0] = t.request_id;
  words[1] = (u64{t.client_id} << 32) | (u64{t.type} << 24) |
             (u64{t.status} << 16) | (u64{t.workload} << 8) | t.flags;
  words[2] = (u64{t.points} << 32) | t.chunks;
  words[3] = t.cache_hits;
  words[4] = t.start_ns;
  words[5] = t.total_ns;
  for (size_t s = 0; s < kNumStages; ++s) words[6 + s] = t.stage_ns[s];
}

RequestTrace unpack(const u64 words[kTraceWords]) {
  RequestTrace t;
  t.request_id = words[0];
  t.client_id = static_cast<u32>(words[1] >> 32);
  t.type = static_cast<u8>(words[1] >> 24);
  t.status = static_cast<u8>(words[1] >> 16);
  t.workload = static_cast<u8>(words[1] >> 8);
  t.flags = static_cast<u8>(words[1]);
  t.points = static_cast<u32>(words[2] >> 32);
  t.chunks = static_cast<u32>(words[2]);
  t.cache_hits = static_cast<u32>(words[3]);
  t.start_ns = words[4];
  t.total_ns = words[5];
  for (size_t s = 0; s < kNumStages; ++s) t.stage_ns[s] = words[6 + s];
  return t;
}

}  // namespace

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kAdmission: return "admission";
    case Stage::kQueueWait: return "queue_wait";
    case Stage::kCacheLookup: return "cache_lookup";
    case Stage::kWarmFork: return "warm_fork";
    case Stage::kExecute: return "execute";
    case Stage::kResponseWrite: return "response_write";
  }
  return "?";
}

// ---------------------------------------------------------------------
// TraceRing

TraceRing::TraceRing(size_t capacity)
    : slots_(new Slot[round_up_pow2(capacity == 0 ? 1 : capacity)]),
      mask_(round_up_pow2(capacity == 0 ? 1 : capacity) - 1) {}

void TraceRing::push(const RequestTrace& trace) {
  const u64 seq = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq & mask_];
  // Odd tag: a writer owns the slot. The payload is relaxed-atomic
  // words, so a concurrent drain can race the copy without UB and uses
  // the tag to discard what it read.
  slot.tag.store(2 * seq + 1, std::memory_order_release);
  u64 words[kTraceWords];
  pack(trace, words);
  for (size_t i = 0; i < kTraceWords; ++i) {
    slot.words[i].store(words[i], std::memory_order_relaxed);
  }
  slot.tag.store(2 * (seq + 1), std::memory_order_release);
}

std::vector<RequestTrace> TraceRing::drain() {
  const std::lock_guard<std::mutex> lock(drain_mu_);
  const u64 head = head_.load(std::memory_order_acquire);
  const u64 cap = mask_ + 1;
  u64 first = cursor_;
  if (head > cap && first < head - cap) {
    // Producers lapped the undrained tail: those records are gone.
    dropped_.fetch_add(head - cap - first, std::memory_order_relaxed);
    first = head - cap;
  }
  std::vector<RequestTrace> out;
  out.reserve(static_cast<size_t>(head - first));
  u64 words[kTraceWords];
  for (u64 seq = first; seq < head; ++seq) {
    Slot& slot = slots_[seq & mask_];
    const u64 want = 2 * (seq + 1);
    if (slot.tag.load(std::memory_order_acquire) != want) {
      // Mid-write (claimed, not yet published) or overwritten by a
      // producer that lapped after `head` was read: skip, count it.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    for (size_t i = 0; i < kTraceWords; ++i) {
      words[i] = slot.words[i].load(std::memory_order_relaxed);
    }
    if (slot.tag.load(std::memory_order_acquire) != want) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    out.push_back(unpack(words));
  }
  cursor_ = head;
  return out;
}

// ---------------------------------------------------------------------
// ServeObs

ServeObs::ServeObs(const Config& config)
    : enabled_(config.enabled),
      steady_anchor_ns_(telemetry::now_ns()),
      wall_anchor_ns_(wall_epoch_now_ns()),
      slow_threshold_ns_(config.slow_threshold_ns),
      ring_(config.ring_capacity),
      slow_log_path_(config.slow_log_path) {}

ServeObs::~ServeObs() {
  if (slow_file_ != nullptr) std::fclose(static_cast<FILE*>(slow_file_));
}

void ServeObs::note_point(u8 workload, const StageClock& clock,
                          u64 cycles) {
  run_chunks_.fetch_add(clock.chunks, std::memory_order_relaxed);
  if (workload >= kMaxWorkloads) return;
  WorkloadAgg& agg = workload_agg_[workload];
  agg.points.fetch_add(1, std::memory_order_relaxed);
  if (clock.cache_hit) agg.cache_hits.fetch_add(1, std::memory_order_relaxed);
  agg.execute_ns.fetch_add(clock.execute_ns, std::memory_order_relaxed);
  agg.cycles.fetch_add(cycles, std::memory_order_relaxed);
}

void ServeObs::complete(const RequestTrace& trace) {
  // Request and stage histograms cover simulation requests only (every
  // stage, including zero-length ones): each count is exactly the
  // number of finalized requests, the invariant CI asserts.
  if (trace.points > 0) {
    request_hist_.record(trace.total_ns);
    for (size_t s = 0; s < kNumStages; ++s) {
      stage_hist_[s].record(trace.stage_ns[s]);
    }
  }
  ring_.push(trace);
  if (slow_threshold_ns_ != 0 && trace.total_ns >= slow_threshold_ns_) {
    slow_requests_.fetch_add(1, std::memory_order_relaxed);
    write_slow_log(trace);
  }
}

std::string trace_json_object(const RequestTrace& trace) {
  std::ostringstream os;
  os << "{\"request_id\":" << trace.request_id
     << ",\"client_id\":" << trace.client_id << ",\"type\":\""
     << trace_type_name(trace.type) << "\",\"outcome\":\""
     << status_name(static_cast<Status>(trace.status)) << "\",\"workload\":\""
     << safe_workload_name(trace.workload)
     << "\",\"flags\":" << static_cast<u32>(trace.flags)
     << ",\"points\":" << trace.points << ",\"chunks\":" << trace.chunks
     << ",\"cache_hits\":" << trace.cache_hits
     << ",\"start_ns\":" << trace.start_ns
     << ",\"total_ns\":" << trace.total_ns << ",\"stages_ns\":{";
  for (size_t s = 0; s < kNumStages; ++s) {
    if (s != 0) os << ",";
    os << "\"" << stage_name(static_cast<Stage>(s))
       << "\":" << trace.stage_ns[s];
  }
  os << "}}";
  return os.str();
}

void ServeObs::write_slow_log(const RequestTrace& trace) {
  const std::string line = "{\"slow_request\":" + trace_json_object(trace) +
                           ",\"threshold_ns\":" +
                           std::to_string(slow_threshold_ns_) + "}";
  const std::lock_guard<std::mutex> lock(slow_mu_);
  FILE* out = stderr;
  if (!slow_log_path_.empty()) {
    if (slow_file_ == nullptr) {
      slow_file_ = std::fopen(slow_log_path_.c_str(), "a");
    }
    if (slow_file_ != nullptr) out = static_cast<FILE*>(slow_file_);
  }
  std::fprintf(out, "%s\n", line.c_str());
  std::fflush(out);
}

namespace {

/// One exposition family: HELP/TYPE header then samples.
void family(std::ostringstream& os, const char* name, const char* type,
            const char* help) {
  os << "# HELP " << name << " " << help << "\n# TYPE " << name << " "
     << type << "\n";
}

void sample(std::ostringstream& os, const char* name, u64 value) {
  os << name << " " << value << "\n";
}

}  // namespace

std::string ServeObs::render_prometheus(const Counters& c,
                                        const Gauges& g) const {
  std::ostringstream os;

  family(os, "hulkv_serve_requests_total", "counter",
         "Requests seen on any connection (decodable or not).");
  sample(os, "hulkv_serve_requests_total", c.requests);
  family(os, "hulkv_serve_requests_admitted_total", "counter",
         "Simulation requests that passed admission control.");
  sample(os, "hulkv_serve_requests_admitted_total", c.admitted);

  family(os, "hulkv_serve_responses_total", "counter",
         "Responses sent, by admission/final outcome.");
  const std::pair<const char*, u64> outcomes[] = {
      {"ok", c.responses_ok},
      {"bad_request", c.rejects_bad_request},
      {"queue_full", c.rejects_queue_full},
      {"quota_exceeded", c.rejects_quota},
      {"shutting_down", c.rejects_shutdown},
      {"deadline_expired", c.deadline_expired},
      {"internal_error", c.internal_errors},
  };
  for (const auto& [outcome, value] : outcomes) {
    os << "hulkv_serve_responses_total{outcome=\"" << outcome << "\"} "
       << value << "\n";
  }

  family(os, "hulkv_serve_pings_total", "counter", "Ping requests.");
  sample(os, "hulkv_serve_pings_total", c.pings);
  family(os, "hulkv_serve_metrics_scrapes_total", "counter",
         "kMetrics scrapes served (this one included).");
  sample(os, "hulkv_serve_metrics_scrapes_total", c.metrics_served);
  family(os, "hulkv_serve_trace_drains_total", "counter",
         "kTrace drains served.");
  sample(os, "hulkv_serve_trace_drains_total", c.traces_served);

  family(os, "hulkv_serve_cache_hits_total", "counter",
         "Result-cache hits.");
  sample(os, "hulkv_serve_cache_hits_total", c.cache_hits);
  family(os, "hulkv_serve_cache_misses_total", "counter",
         "Result-cache misses.");
  sample(os, "hulkv_serve_cache_misses_total", c.cache_misses);
  family(os, "hulkv_serve_points_simulated_total", "counter",
         "Points that ran a simulation (misses + no-cache runs).");
  sample(os, "hulkv_serve_points_simulated_total", c.points_simulated);
  family(os, "hulkv_serve_cold_builds_total", "counter",
         "Warm-pool entries built (one cold boot each).");
  sample(os, "hulkv_serve_cold_builds_total", c.cold_builds);
  family(os, "hulkv_serve_run_chunks_total", "counter",
         "1Mi-instruction run segments executed.");
  sample(os, "hulkv_serve_run_chunks_total", run_chunks_.load());
  family(os, "hulkv_serve_slow_requests_total", "counter",
         "Requests over the slow-request threshold.");
  sample(os, "hulkv_serve_slow_requests_total", slow_requests_.load());
  family(os, "hulkv_serve_trace_completed_total", "counter",
         "Request traces pushed into the ring.");
  sample(os, "hulkv_serve_trace_completed_total", ring_.completed());
  family(os, "hulkv_serve_trace_dropped_total", "counter",
         "Request traces overwritten before a kTrace drain.");
  sample(os, "hulkv_serve_trace_dropped_total", ring_.dropped());

  family(os, "hulkv_serve_points_total", "counter",
         "Completed simulation points, by workload.");
  for (size_t w = 0; w < kMaxWorkloads && w < workload_count(); ++w) {
    const u64 points = workload_agg_[w].points.load();
    os << "hulkv_serve_points_total{workload=\""
       << workload_name(static_cast<u8>(w)) << "\"} " << points << "\n";
  }

  family(os, "hulkv_serve_queue_depth", "gauge",
         "Points currently queued for a worker.");
  sample(os, "hulkv_serve_queue_depth", g.queued_points);
  family(os, "hulkv_serve_in_flight_points", "gauge",
         "Points claimed by a worker, not yet finalized.");
  sample(os, "hulkv_serve_in_flight_points", g.in_flight_points);
  family(os, "hulkv_serve_max_queue_depth", "gauge",
         "Peak queued points over the server's lifetime.");
  sample(os, "hulkv_serve_max_queue_depth", g.max_queue_depth);
  family(os, "hulkv_serve_cache_entries", "gauge",
         "Result-cache entries resident.");
  sample(os, "hulkv_serve_cache_entries", g.cache_entries);
  family(os, "hulkv_serve_workers", "gauge", "Simulation worker threads.");
  sample(os, "hulkv_serve_workers", g.workers);
  char buf[64];
  family(os, "hulkv_serve_utilization", "gauge",
         "In-flight points / workers, clamped to [0, 1].");
  std::snprintf(buf, sizeof(buf), "%.4f", g.utilization);
  os << "hulkv_serve_utilization " << buf << "\n";
  family(os, "hulkv_serve_uptime_seconds", "gauge",
         "Seconds since the server started.");
  std::snprintf(buf, sizeof(buf), "%.3f", g.uptime_s);
  os << "hulkv_serve_uptime_seconds " << buf << "\n";

  family(os, "hulkv_serve_stage_latency_ns", "summary",
         "Wall-clock nanoseconds per request, by pipeline stage "
         "(stage times are summed over a request's points).");
  for (size_t s = 0; s < kNumStages; ++s) {
    const char* stage = stage_name(static_cast<Stage>(s));
    const telemetry::HistogramData hist = stage_hist_[s].snapshot();
    const std::pair<const char*, double> quantiles[] = {
        {"0.5", 50.0}, {"0.9", 90.0}, {"0.99", 99.0}, {"0.999", 99.9}};
    for (const auto& [label, p] : quantiles) {
      os << "hulkv_serve_stage_latency_ns{stage=\"" << stage
         << "\",quantile=\"" << label << "\"} " << hist.percentile(p)
         << "\n";
    }
    os << "hulkv_serve_stage_latency_ns_sum{stage=\"" << stage << "\"} "
       << hist.sum() << "\n";
    os << "hulkv_serve_stage_latency_ns_count{stage=\"" << stage << "\"} "
       << hist.count() << "\n";
  }
  return os.str();
}

std::string ServeObs::render_trace_json() {
  const std::vector<RequestTrace> traces = ring_.drain();
  std::ostringstream os;
  trace::ChromeTraceWriter out(os);
  constexpr u32 kPid = 3;
  out.process_name(kPid, "hulkv-serve (wall clock)");
  // Requests render on a small fixed set of lanes (round-robin by
  // completion order) so concurrent requests don't stack on one row.
  constexpr size_t kLanes = 8;
  const size_t lanes = std::clamp<size_t>(traces.size(), 1, kLanes);
  for (u32 lane = 0; lane < lanes; ++lane) {
    out.thread_name(kPid, lane + 1, "requests-" + std::to_string(lane));
  }
  out.clock_anchor(kPid, "hulkv-serve", wall_anchor_ns_, steady_anchor_ns_);
  for (size_t i = 0; i < traces.size(); ++i) {
    const RequestTrace& t = traces[i];
    out.wall_slice(kPid, static_cast<u32>(i % kLanes + 1),
                   std::string(trace_type_name(t.type)) + " " +
                       status_name(static_cast<Status>(t.status)),
                   "hulkv-serve", t.start_ns, t.total_ns,
                   trace_json_object(t));
  }
  out.finish();
  return os.str();
}

std::string ServeObs::per_workload_json() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (size_t w = 0; w < kMaxWorkloads && w < workload_count(); ++w) {
    const WorkloadAgg& agg = workload_agg_[w];
    const u64 points = agg.points.load();
    if (points == 0) continue;
    if (!first) os << ",";
    first = false;
    os << "\"" << workload_name(static_cast<u8>(w))
       << "\":{\"points\":" << points
       << ",\"cache_hits\":" << agg.cache_hits.load()
       << ",\"cycles\":" << agg.cycles.load()
       << ",\"execute_ns\":" << agg.execute_ns.load() << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace hulkv::serve::obs
