#include "telemetry/manifest.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/json_quote.hpp"
#include "report/report.hpp"

namespace hulkv::telemetry {

namespace {

std::string host_name() {
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf;
}

void append_sweep(std::ostringstream& os, const SweepSummary& s) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"jobs\":%llu,\"workers\":%u,\"wall_ns\":%llu,"
                "\"busy_ns\":%llu,\"p50_ns\":%llu,\"p99_ns\":%llu,"
                "\"max_in_flight\":%llu,\"jobs_per_s\":%.3f,"
                "\"utilization\":%.4f}",
                static_cast<unsigned long long>(s.jobs), s.workers,
                static_cast<unsigned long long>(s.wall_ns),
                static_cast<unsigned long long>(s.busy_ns),
                static_cast<unsigned long long>(s.p50_ns),
                static_cast<unsigned long long>(s.p99_ns),
                static_cast<unsigned long long>(s.max_in_flight),
                s.jobs_per_s, s.utilization);
  os << buf;
}

}  // namespace

std::string Manifest::to_json_line() const {
  std::ostringstream os;
  os << "{\"schema_version\":" << schema_version
     << ",\"kind\":" << json_quote(kind)
     << ",\"bench\":" << json_quote(bench)
     << ",\"timestamp_ns\":" << timestamp_ns
     << ",\"host\":{\"hostname\":" << json_quote(hostname)
     << ",\"pid\":" << pid << ",\"hw_concurrency\":" << hw_concurrency
     << "}";

  os << ",\"config_fingerprints\":[";
  for (size_t i = 0; i < config_fingerprints.size(); ++i) {
    if (i != 0) os << ",";
    os << config_fingerprints[i];
  }
  // Array of {name, digest} objects: the same digest can carry several
  // names (kernel name + the generic load-path name) and the same name
  // several digests, so an object keyed by name would drop entries.
  os << "],\"program_digests\":[";
  for (size_t i = 0; i < program_digests.size(); ++i) {
    if (i != 0) os << ",";
    os << "{\"name\":" << json_quote(program_digests[i].first)
       << ",\"digest\":" << program_digests[i].second << "}";
  }
  os << "],\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) os << ",";
    os << json_quote(metrics[i].key) << ":{\"value\":"
       << metrics[i].value_json << ",\"unit\":" << json_quote(metrics[i].unit)
       << "}";
  }
  os << "},\"phases\":{";
  for (size_t i = 0; i < phases.size(); ++i) {
    if (i != 0) os << ",";
    os << json_quote(phases[i].phase) << ":"
       << phases[i].latency.summary_json();
  }
  os << "},\"sweeps\":[";
  for (size_t i = 0; i < sweeps.size(); ++i) {
    if (i != 0) os << ",";
    append_sweep(os, sweeps[i]);
  }
  os << "]";
  if (serve_requests.present) {
    os << ",\"serve_requests\":{\"outcomes\":{";
    for (size_t i = 0; i < serve_requests.outcomes.size(); ++i) {
      if (i != 0) os << ",";
      os << json_quote(serve_requests.outcomes[i].first) << ":"
         << serve_requests.outcomes[i].second;
    }
    os << "},\"stages\":{";
    for (size_t i = 0; i < serve_requests.stages.size(); ++i) {
      if (i != 0) os << ",";
      os << json_quote(serve_requests.stages[i].phase) << ":"
         << serve_requests.stages[i].latency.summary_json();
    }
    os << "}}";
  }
  os << "}";
  return os.str();
}

Manifest build_manifest(const report::MetricsReport& rep,
                        const Registry& reg) {
  Manifest m;
  m.bench = rep.name();
  m.timestamp_ns = reg.wall_anchor_ns();
  m.hostname = host_name();
  m.pid = static_cast<u32>(getpid());
  m.hw_concurrency = std::thread::hardware_concurrency();
  m.config_fingerprints = reg.config_fingerprints();
  m.program_digests = reg.program_digests();
  for (const auto& metric : rep.metrics()) {
    m.metrics.push_back(
        {metric.key, metric.value.to_json(), metric.unit});
  }
  for (size_t p = 0; p < kNumSpanPhases; ++p) {
    const auto phase = static_cast<SpanPhase>(p);
    HistogramData hist = reg.phase_histogram(phase);
    if (hist.count() == 0) continue;
    m.phases.push_back({phase_name(phase), std::move(hist)});
  }
  m.sweeps = reg.sweeps();
  return m;
}

std::string append_manifest(const std::string& dir,
                            const Manifest& manifest) {
  if (mkdir(dir.c_str(), 0775) != 0 && errno != EEXIST) {
    throw SimError("telemetry: cannot create manifest directory " + dir);
  }
  const std::string name =
      manifest.bench.empty() ? std::string("run") : manifest.bench;
  const std::string path = dir + "/" + name + ".jsonl";
  std::ofstream out(path, std::ios::app);
  if (!out) throw SimError("telemetry: cannot open manifest file " + path);
  out << manifest.to_json_line() << "\n";
  if (!out) throw SimError("telemetry: failed writing manifest " + path);
  return path;
}

void finish_bench(const report::MetricsReport& rep,
                  const report::BenchOptions& options) {
  if (!options.telemetry) return;
  Registry& reg = registry();
  const Manifest manifest = build_manifest(rep, reg);
  const std::string dir =
      options.telemetry_dir.empty() ? std::string("runs")
                                    : options.telemetry_dir;
  const std::string path = append_manifest(dir, manifest);
  // stderr, not stdout: bench stdout must stay byte-identical with
  // telemetry on or off (pinned by determinism_test).
  std::fprintf(stderr, "[telemetry] appended run manifest to %s\n",
               path.c_str());
  reg.disable();
}

}  // namespace hulkv::telemetry
