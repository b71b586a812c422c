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

namespace {

/// Stats of the most recent run_jobs() (orchestration-thread owned).
SweepStats g_last_stats;  // NOLINT(cert-err58-cpp)

}  // namespace

u32 default_jobs() {
  const u32 hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

double SweepStats::jobs_per_s() const {
  return wall_ns == 0 ? 0.0
                      : static_cast<double>(jobs) / wall_seconds();
}

double SweepStats::utilization() const {
  if (wall_ns == 0 || workers == 0) return 0.0;
  return static_cast<double>(busy_ns) /
         (static_cast<double>(wall_ns) * workers);
}

void SweepStats::add_to(report::MetricsReport& rep,
                        const std::string& prefix) const {
  rep.add_metric(prefix + "jobs", report::Value::uinteger(jobs));
  rep.add_metric(prefix + "workers", report::Value::uinteger(workers));
  rep.add_metric(prefix + "wall_s",
                 report::Value::number(wall_seconds(), 4), "s");
  rep.add_metric(prefix + "jobs_per_s",
                 report::Value::number(jobs_per_s(), 2), "jobs/s");
  rep.add_metric(prefix + "latency_p50",
                 report::Value::uinteger(latency.percentile(50)), "ns");
  rep.add_metric(prefix + "latency_p90",
                 report::Value::uinteger(latency.percentile(90)), "ns");
  rep.add_metric(prefix + "latency_p99",
                 report::Value::uinteger(latency.percentile(99)), "ns");
  rep.add_metric(prefix + "latency_mean",
                 report::Value::number(latency.mean(), 1), "ns");
  rep.add_metric(prefix + "utilization",
                 report::Value::number(utilization(), 4));
  rep.add_metric(prefix + "max_in_flight",
                 report::Value::uinteger(max_in_flight));
}

const SweepStats& last_sweep_stats() { return g_last_stats; }

namespace {

/// Finalize per-job measurements into g_last_stats and, when telemetry
/// is collecting, hand the summary to the registry for the manifest.
void finish_sweep_stats(SweepStats stats, const std::vector<u64>& durations,
                        std::vector<u64> in_flight, u64 start_ns) {
  stats.wall_ns = telemetry::now_ns() - start_ns;
  for (const u64 d : durations) {
    stats.latency.record(d);
    stats.busy_ns += d;
  }
  for (const u64 f : in_flight) {
    stats.max_in_flight = std::max(stats.max_in_flight, f);
  }
  stats.in_flight_samples = std::move(in_flight);
  if (telemetry::enabled()) {
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
  g_last_stats = std::move(stats);
}

}  // namespace

void run_jobs(u64 count, u32 workers, const std::function<void(u64)>& job) {
  if (count == 0) {
    g_last_stats = {};
    return;
  }
  if (workers == 0) workers = default_jobs();
  if (workers > count) workers = static_cast<u32>(count);

  SweepStats stats;
  stats.jobs = count;
  stats.workers = workers;
  const u64 start_ns = telemetry::now_ns();
  // Slot-per-job measurement storage: workers write disjoint indices,
  // and the pool join orders those writes before the aggregation below.
  std::vector<u64> durations(count);
  std::vector<u64> in_flight(count);

  if (workers <= 1) {
    // Serial path: inline, index order — byte-identical to the
    // pre-batch single-threaded benches by construction.
    for (u64 i = 0; i < count; ++i) {
      in_flight[i] = 1;
      const u64 job_start = telemetry::now_ns();
      {
        const telemetry::Span span(telemetry::SpanPhase::kBatchJob);
        job(i);
      }
      durations[i] = telemetry::now_ns() - job_start;
    }
    finish_sweep_stats(std::move(stats), durations, std::move(in_flight),
                       start_ns);
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
        in_flight[i] = i + 1 - completed.load(std::memory_order_relaxed);
        const u64 job_start = telemetry::now_ns();
        {
          const telemetry::Span span(telemetry::SpanPhase::kBatchJob);
          try {
            job(i);
          } catch (...) {
            const std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error) first_error = std::current_exception();
          }
        }
        durations[i] = telemetry::now_ns() - job_start;
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
  finish_sweep_stats(std::move(stats), durations, std::move(in_flight),
                     start_ns);
}

SocSnapshot SocSnapshot::capture(
    core::HulkVSoc& soc, const core::HulkVSoc::SectionWriterFn& extra) {
  std::ostringstream os(std::ios::binary);
  soc.save(os, extra);
  const std::string blob = os.str();
  SocSnapshot snap;
  snap.bytes_.assign(blob.begin(), blob.end());
  return snap;
}

void SocSnapshot::restore_into(
    core::HulkVSoc& soc, const core::HulkVSoc::SectionReaderFn& extra) const {
  HULKV_CHECK(!bytes_.empty(), "restore from an empty SocSnapshot");
  // No checksum pass: capture() is the only source of bytes_, and its
  // Writer computed the trailer over exactly these bytes.
  soc.restore(snapshot::Reader(bytes_.data(), bytes_.size()), extra);
}

report::MetricsReport merge_reports(
    const std::string& name,
    const std::vector<report::MetricsReport>& parts) {
  report::MetricsReport merged(name);
  for (const report::MetricsReport& part : parts) {
    for (const auto& metric : part.metrics()) {
      merged.add_metric(metric.key, metric.value, metric.unit);
    }
    for (const report::Table& table : part.tables()) {
      merged.add_table(table);
    }
    for (const std::string& note : part.notes()) merged.add_note(note);
  }
  return merged;
}

report::MetricsReport SweepEngine::map_reports(
    const std::string& name, u64 count,
    const std::function<report::MetricsReport(u64)>& fn) const {
  // Slots first (MetricsReport has no default ctor — seed with an empty
  // name; every slot is overwritten by its job).
  std::vector<report::MetricsReport> parts(count,
                                           report::MetricsReport(""));
  run_jobs(count, workers_, [&](u64 index) { parts[index] = fn(index); });
  return merge_reports(name, parts);
}

report::MetricsReport SweepEngine::stats_report(
    const std::string& name) const {
  report::MetricsReport rep(name);
  last_stats().add_to(rep, "sweep.");
  return rep;
}

}  // namespace hulkv::batch
