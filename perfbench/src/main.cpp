// perfbench: the repository benchmark (perfbench/README.md).
//
//   perfbench --workload iot_host|offload_dsp|serve_mixed --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// Runs the workload's op set in passes, checks every op's simulated
// result, and reports each host-time metric from the best repetition of
// every op. The last stdout line is one JSON object: end-to-end metrics
// with --trace 0, per-layer metrics with --trace 1 (a traced run, whose
// spans are written to DIR/perfbench_trace_<workload>.json).
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},    {"sim_mips", "MIPS"},     {"op_ms", "ms"},
    {"op_max_ms", "ms"}, {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"host.run_ms", "ms"},
    {"host.ns_per_instr", "ns/instr"},
    {"host.instret", "count"},
    {"host.l1d_accesses", "count"},
    {"host.l1d_miss_ratio", "ratio"},
    {"host.l1i_miss_ratio", "ratio"},
    {"isa.block_translations", "count"},
    {"mem.llc_accesses", "count"},
    {"mem.llc_miss_ratio", "ratio"},
    {"mem.ext_busy_cycles", "cycles"},
    {"mem.refresh_collisions", "count"},
    {"runtime.register_ms", "ms"},
    {"runtime.offload_cold_ms", "ms"},
    {"runtime.offload_warm_ms", "ms"},
    {"runtime.code_load_cycles", "cycles"},
    {"cluster.ns_per_instr", "ns/instr"},
    {"cluster.instret", "count"},
    {"cluster.tcdm_conflicts", "count"},
    {"cluster.icache_misses", "count"},
    {"cluster.dma_bytes", "B"},
    {"snapshot.capture_ms", "ms"},
    {"snapshot.restore_ms", "ms"},
    {"snapshot.bytes", "B"},
    {"core.soc_new_ms", "ms"},
    {"kernels.stage_ms", "ms"},
    {"kernels.prepare_ms", "ms"},
    {"serve.run_point_ms", "ms"},
    {"serve.wire_ms", "ms"},
    {"serve.cpu_ms_per_req", "ms"},
    {"serve.suite_ms", "ms"},
    {"serve.hit_us", "us"},
    {"serve.cache_hit_ratio", "ratio"},
    {"sim.cycles", "cycles"},
    {"op_raw_p50_ms", "ms"},
    {"op_raw_tail_ms", "ms"},
    {"op_raw_n", "count"},
    {"trace.overhead_pct", "%"},
};

/// Set-ups per run, spread over the run like the passes.
constexpr std::uint32_t kSetupReps = 9;
/// A traced run alternates untraced and traced passes, so it needs two.
constexpr std::uint32_t kMinPasses = 2;

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "iot_host|offload_dsp|serve_mixed [--seed N] [--seconds S] "
               "[--trace 0|1] [--out-dir DIR]\n",
               error.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(o.seconds > 0)) {
        usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      o.trace = value == "1";
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "iot_host") return make_iot_host(o.seed);
  if (o.workload == "offload_dsp") return make_offload_dsp(o.seed);
  if (o.workload == "serve_mixed") {
    return make_serve_mixed(
        o.seed, o.out_dir + "/perfbench-" + std::to_string(getpid()) + ".sock",
        o.trace);
  }
  usage("unknown workload " + o.workload);
}

/// Peak resident set size of this process image. VmHWM, not getrusage:
/// ru_maxrss keeps the peak of the parent that fork()ed this process.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Everything one run measured.
struct Run {
  BestTable setup;  // best self time per set-up step over the set-ups
  std::vector<std::vector<double>> op_ns;         // untraced passes
  std::vector<std::vector<double>> traced_op_ns;  // traced passes
  std::vector<std::optional<OpRun>> first;        // first repetition
  BestTable layers;
  std::optional<std::map<std::string, double>> counts;  // per traced pass
  Tally tally;
  double peak_rss_mib = 0;  // while the first set-up's state is in use
  std::uint32_t passes = 0;
  double pass_seconds = 0;  // wall time of the passes, set-ups excluded
};

std::string repeat_error(std::optional<OpRun>& first, const OpRun& run) {
  if (!first) {
    first = run;
    return "";
  }
  if (first->instret == run.instret && first->cycles == run.cycles) return "";
  return "repetition retired " + std::to_string(run.instret) +
         " instructions in " + std::to_string(run.cycles) +
         " cycles, first " + std::to_string(first->instret) + " in " +
         std::to_string(first->cycles);
}

Run execute(Workload& w, const Options& o, Recorder& rec) {
  Run run;
  run.passes = std::max<std::uint32_t>(
      kMinPasses, static_cast<std::uint32_t>(
                      std::llround(o.seconds / w.nominal_pass_seconds())));
  std::uint32_t setups = 0;
  for (std::uint32_t pass = 0; pass < run.passes; ++pass) {
    while (setups < kSetupReps &&
           std::uint64_t{setups} * run.passes / kSetupReps <= pass) {
      // Later set-ups only repeat the measurement; the allocator's
      // leftovers from earlier ones would make the peak wander.
      if (setups == 1) run.peak_rss_mib = peak_rss_mib();
      w.teardown();
      // Set-up steps are always timed: setup_s sums their best times.
      rec.set_tracing(true);
      {
        Recorder::Span span(rec, "setup", 0);
        w.setup(rec);
      }
      run.setup.add_pass(rec.end_pass().values);
      if (setups == 0) {
        run.op_ns.resize(w.op_count());
        run.traced_op_ns.resize(w.op_count());
        run.first.resize(w.op_count());
      }
      ++setups;
    }

    const bool traced = o.trace && pass % 2 == 1;
    rec.set_tracing(traced);
    const std::uint64_t pass_start = now_ns();
    for (std::size_t op : w.pass_order(pass)) {
      const std::string what = w.unit_name(static_cast<std::uint32_t>(op));
      std::string error;
      try {
        OpRun r;
        const std::uint64_t t0 = now_ns();
        {
          Recorder::Span span(rec, "op", static_cast<std::uint32_t>(op));
          r = w.run_op(op, rec);
        }
        const auto ns = static_cast<double>(now_ns() - t0);
        error = w.check_op(op);
        if (error.empty()) error = repeat_error(run.first[op], r);
        if (error.empty()) {
          (traced ? run.traced_op_ns : run.op_ns)[op].push_back(ns);
          rec.count("sim.cycles", static_cast<double>(r.cycles));
        }
      } catch (const std::exception& e) {
        error = e.what();
      }
      run.tally.record(what, error);
      try {
        w.after_op(op, rec, run.tally);
      } catch (const std::exception& e) {
        run.tally.record(what + " (after op)", e.what());
      }
    }
    try {
      w.after_pass(rec, run.tally);
    } catch (const std::exception& e) {
      run.tally.record("pass end", e.what());
    }
    Recorder::Pass p = rec.end_pass();
    run.pass_seconds += static_cast<double>(now_ns() - pass_start) / 1e9;
    if (!traced) continue;
    run.layers.add_pass(p.values);
    if (!run.counts) {
      run.counts = p.counts;
    } else if (*run.counts != p.counts) {
      run.tally.record("pass " + std::to_string(pass),
                       "simulated counts differ from the first traced pass");
    }
  }
  w.teardown();
  return run;
}

/// sim_mips, op_ms and op_max_ms from per-op repetition times.
void add_end_to_end(const Run& run,
                    const std::vector<std::vector<double>>& op_ns,
                    std::map<std::string, double>& m) {
  const BestSummary best = summarize_best(op_ns);
  double instret = 0;
  for (std::size_t op = 0; op < op_ns.size(); ++op) {
    if (!op_ns[op].empty() && run.first[op]) {
      instret += static_cast<double>(run.first[op]->instret);
    }
  }
  m["sim_mips"] = best.sum > 0 ? instret / best.sum * 1e3 : 0;
  m["op_ms"] = best.median / 1e6;
  m["op_max_ms"] = best.max / 1e6;
}

void add_per_layer(const Run& run, std::map<std::string, double>& m) {
  const BestTable& b = run.layers;
  const std::map<std::string, double> counts =
      run.counts.value_or(std::map<std::string, double>{});
  const auto count = [&](const std::string& name) {
    const auto it = counts.find(name);
    return it == counts.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  for (const char* layer :
       {"host.run", "runtime.register", "runtime.offload_cold",
        "runtime.offload_warm", "snapshot.restore", "core.soc_new",
        "kernels.stage", "kernels.prepare", "serve.run_point",
        "serve.suite"}) {
    m[std::string(layer) + "_ms"] = b.sum(layer) / 1e6;
  }
  m["snapshot.capture_ms"] = run.setup.sum("snapshot.capture") / 1e6;
  for (const char* name :
       {"host.instret", "host.l1d_accesses", "isa.block_translations",
        "mem.llc_accesses", "mem.ext_busy_cycles", "mem.refresh_collisions",
        "runtime.code_load_cycles", "cluster.instret",
        "cluster.tcdm_conflicts", "cluster.icache_misses",
        "cluster.dma_bytes", "snapshot.bytes", "sim.cycles"}) {
    m[name] = count(name);
  }
  m["host.ns_per_instr"] = ratio(b.sum("host.run"), count("host.instret"));
  m["host.l1d_miss_ratio"] =
      ratio(count("host.l1d_misses"), count("host.l1d_accesses"));
  m["host.l1i_miss_ratio"] =
      ratio(count("host.l1i_misses"), count("host.l1i_accesses"));
  m["mem.llc_miss_ratio"] =
      ratio(count("mem.llc_misses"), count("mem.llc_accesses"));
  m["cluster.ns_per_instr"] =
      ratio(b.sum("runtime.offload_cold") + b.sum("runtime.offload_warm"),
            count("cluster.instret"));

  // Client round trip minus the in-process run_point of the same point.
  double wire = 0;
  for (std::uint32_t op = 0; op < run.first.size(); ++op) {
    const double request = b.best(op, "serve.request");
    const double point = b.best(op, "serve.run_point");
    if (request >= 0 && point >= 0) wire += request - point;
  }
  m["serve.wire_ms"] = wire / 1e6;
  const std::vector<double> cpu = b.bests("serve.request_cpu");
  m["serve.cpu_ms_per_req"] =
      cpu.empty() ? 0 : b.sum("serve.request_cpu") / cpu.size() / 1e6;
  m["serve.hit_us"] = median(b.bests("serve.hit")) / 1e3;
  m["serve.cache_hit_ratio"] =
      ratio(count("serve.cache_hits"), count("serve.cache_lookups"));

  std::map<std::string, double> traced;
  add_end_to_end(run, run.traced_op_ns, traced);
  m["trace.overhead_pct"] =
      traced["sim_mips"] > 0
          ? (m["sim_mips"] / traced["sim_mips"] - 1.0) * 100.0
          : 0;
}

void print_metric(const MetricDef& d, double value) {
  std::printf("  %-26s %16.6f %s\n", d.name, value, d.unit);
}

int run_main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  std::unique_ptr<Workload> w = make_workload(o);
  Recorder rec;
  Run run = execute(*w, o, rec);

  std::map<std::string, double> m;
  m["setup_s"] = run.setup.total() / 1e9;
  add_end_to_end(run, run.op_ns, m);
  m["peak_rss_mb"] = run.peak_rss_mib > 0 ? run.peak_rss_mib : peak_rss_mib();
  std::vector<double> raw;
  for (const std::vector<double>& op : run.op_ns) {
    raw.insert(raw.end(), op.begin(), op.end());
  }
  const Percentile p50 = percentile(raw, 50000);
  const Percentile tail = tail_percentile(raw);
  m["op_raw_p50_ms"] = p50.value / 1e6;
  m["op_raw_tail_ms"] = tail.value / 1e6;
  m["op_raw_n"] = static_cast<double>(raw.size());

  std::printf(
      "perfbench workload=%s seed=%llu passes=%u ops=%zu trace=%d "
      "pass_time=%.1fs\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), run.passes,
      run.first.size(), o.trace ? 1 : 0, run.pass_seconds);
  std::printf("end-to-end (untraced passes, best repetition per op):\n");
  for (const MetricDef& d : kEndToEnd) print_metric(d, m[d.name]);
  std::printf(
      "raw op latency (ungated): p50 %.3f ms, p%g %.3f ms (%zu samples "
      "beyond), n=%zu\n",
      p50.value / 1e6, tail.pct, tail.value / 1e6, tail.beyond, raw.size());
  if (o.trace) {
    add_per_layer(run, m);
    std::printf("per-layer (traced passes, best per op summed over a "
                "pass):\n");
    for (const MetricDef& d : kPerLayer) print_metric(d, m[d.name]);
    std::printf("tracing overhead: %.2f%% of untraced sim_mips\n",
                m["trace.overhead_pct"]);
    const std::string path =
        o.out_dir + "/perfbench_trace_" + o.workload + ".json";
    const bool written = rec.write_trace(path, [&](std::uint32_t unit) {
      return w->unit_name(unit);
    });
    if (!written) {
      run.tally.record("trace file", "cannot write " + path);
    }
    std::printf("trace: %zu spans -> %s\n", rec.span_count(), path.c_str());
  }
  for (const std::string& e : run.tally.errors) {
    std::printf("FAILED %s\n", e.c_str());
  }

  std::string json = "{\"correct\": ";
  json += run.tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.tally.attempted);
  json += ", \"failed\": " + std::to_string(run.tally.failed);
  json += ", \"metrics\": {";
  const std::span<const MetricDef> reported =
      o.trace ? std::span<const MetricDef>(kPerLayer)
              : std::span<const MetricDef>(kEndToEnd);
  for (const MetricDef& d : reported) {
    const double v = std::isfinite(m[d.name]) ? m[d.name] : 0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += std::string(&d == reported.data() ? "" : ", ") + "\"" + d.name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + d.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
