#include "batch/batch.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/log.hpp"
#include "profile/attr.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace.hpp"

namespace hulkv::batch {

u32 default_jobs() {
  const u32 hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

namespace {

/// Host-side statistics of one run_jobs() pool drain (DESIGN.md §14.3).
struct SweepStats {
  u64 jobs = 0;
  u32 workers = 0;        // effective worker count after clamping
  u64 wall_ns = 0;        // queue open -> pool drained
  u64 busy_ns = 0;        // sum of per-job wall times
  u64 max_in_flight = 0;  // peak concurrently-running jobs observed
  telemetry::HistogramData latency;  // per-job wall ns

  /// Jobs per second of wall time (0 for an empty or unfinished run).
  double jobs_per_s() const {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(jobs) /
                              (static_cast<double>(wall_ns) / 1e9);
  }
  /// busy / (wall * workers): 1.0 = every worker ran jobs the whole
  /// drain; low values mean workers starved on an uneven grid.
  double utilization() const {
    if (wall_ns == 0 || workers == 0) return 0.0;
    return static_cast<double>(busy_ns) /
           (static_cast<double>(wall_ns) * workers);
  }
};

/// Finalize per-job measurements and hand the summary to the registry
/// for the manifest.
void finish_sweep_stats(SweepStats stats, const std::vector<u64>& durations,
                        const std::vector<u64>& in_flight, u64 start_ns) {
  stats.wall_ns = telemetry::now_ns() - start_ns;
  for (const u64 d : durations) {
    stats.latency.record(d);
    stats.busy_ns += d;
  }
  for (const u64 f : in_flight) {
    stats.max_in_flight = std::max(stats.max_in_flight, f);
  }
  telemetry::SweepSummary summary;
  summary.jobs = stats.jobs;
  summary.workers = stats.workers;
  summary.wall_ns = stats.wall_ns;
  summary.busy_ns = stats.busy_ns;
  summary.p50_ns = stats.latency.percentile(50);
  summary.p99_ns = stats.latency.percentile(99);
  summary.max_in_flight = stats.max_in_flight;
  summary.jobs_per_s = stats.jobs_per_s();
  summary.utilization = stats.utilization();
  telemetry::registry().note_sweep(summary);
}

}  // namespace

void run_jobs(u64 count, u32 workers, const std::function<void(u64)>& job) {
  if (count == 0) return;
  if (workers == 0) workers = default_jobs();
  if (workers > count) workers = static_cast<u32>(count);

  // The sweep is measured only while telemetry collects; otherwise it
  // reads no clock and keeps no per-job samples.
  const bool measured = telemetry::enabled();
  SweepStats stats;
  stats.jobs = count;
  stats.workers = workers;
  const u64 start_ns = measured ? telemetry::now_ns() : 0;
  // Slot-per-job measurement storage: workers write disjoint indices,
  // and the pool join orders those writes before the aggregation below.
  std::vector<u64> durations(measured ? count : 0);
  std::vector<u64> in_flight(measured ? count : 0);
  // Job i with `running` jobs claimed and unfinished, itself included.
  const auto run_one = [&](u64 i, u64 running) {
    const telemetry::Span span(telemetry::SpanPhase::kBatchJob);
    if (!measured) {
      job(i);
      return;
    }
    in_flight[i] = running;
    const u64 job_start = telemetry::now_ns();
    job(i);
    durations[i] = telemetry::now_ns() - job_start;
  };

  if (workers <= 1) {
    // Serial path: inline, index order — byte-identical to the
    // pre-batch single-threaded benches by construction.
    for (u64 i = 0; i < count; ++i) run_one(i, 1);
    if (measured) finish_sweep_stats(stats, durations, in_flight, start_ns);
    return;
  }

  HULKV_CHECK(!trace::enabled(),
              "batch: the trace sink is not thread-safe; "
              "run with --jobs 1 when tracing");
  HULKV_CHECK(!profile::enabled(),
              "batch: the cycle profiler is not thread-safe; "
              "run with --jobs 1 when profiling");
  // Force the lazy HULKV_LOG read now, while single-threaded; workers
  // then only read the settled level.
  (void)log_level();

  std::atomic<u64> next{0};
  std::atomic<u64> completed{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (u32 w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (u64 i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        // Jobs 0..i-1 were claimed before this one (fetch_add order),
        // so claimed-but-unfinished = i + 1 - completed, counting this
        // job. The sample is stored slot-per-job: values vary run to
        // run (true concurrency), placement never does.
        try {
          run_one(i, i + 1 - completed.load(std::memory_order_relaxed));
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
  if (measured) finish_sweep_stats(stats, durations, in_flight, start_ns);
}

SocSnapshot SocSnapshot::capture(
    core::HulkVSoc& soc, const core::HulkVSoc::SectionWriterFn& extra) {
  std::ostringstream os(std::ios::binary);
  soc.save(os, extra);
  SocSnapshot snap;
  snap.bytes_ = std::move(os).str();
  return snap;
}

void SocSnapshot::restore_into(
    core::HulkVSoc& soc, const core::HulkVSoc::SectionReaderFn& extra) const {
  HULKV_CHECK(!bytes_.empty(), "restore from an empty SocSnapshot");
  // No checksum pass: capture() is the only source of bytes_, and its
  // Writer computed the trailer over exactly these bytes.
  soc.restore(snapshot::Reader(reinterpret_cast<const u8*>(bytes_.data()),
                               bytes_.size()),
              extra);
}

}  // namespace hulkv::batch
