// Regenerates Fig. 8: the five IoT CPU-centric benchmarks on the four
// memory configurations, normalised to DDR4+LLC. The paper's claim:
// with the LLC, HyperRAM and DDR4 are "closer than 5%" — LPDDR/DDR
// memories would be oversized for these workloads.
#include <array>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "batch/batch.hpp"
#include "common/rng.hpp"
#include "core/soc.hpp"
#include "kernels/golden.hpp"
#include "kernels/host_kernels.hpp"
#include "kernels/iot_benchmarks.hpp"
#include "profile/profile.hpp"
#include "report/report.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace hulkv;

/// Sets up data on the SoC and returns {program, args}.
struct Workload {
  std::string name;
  std::function<std::pair<kernels::KernelProgram, std::vector<u64>>(
      core::HulkVSoc&)>
      setup;
};

Cycles run_on(const Workload& workload, core::MainMemoryKind kind,
              bool llc) {
  core::SocConfig cfg;
  cfg.main_memory = kind;
  cfg.enable_llc = llc;
  core::HulkVSoc soc(cfg);
  auto [program, args] = workload.setup(soc);
  // Steady-state measurement: warm run, then the timed run (benchmarks
  // are conventionally repeated; the caches stay warm across runs).
  kernels::run_host_program(soc, program, args);
  return kernels::run_host_program(soc, program, args).cycles;
}

std::vector<Workload> workloads() {
  std::vector<Workload> list;

  list.push_back({"crc32", [](core::HulkVSoc& soc) {
                    const u32 n = 64 * 1024;
                    Xoshiro256 rng(1);
                    std::vector<u8> data(n);
                    for (auto& b : data) b = static_cast<u8>(rng.next());
                    const auto table = kernels::golden::crc32_table();
                    const Addr pd = core::layout::kSharedBase;
                    const Addr pt = pd + n;
                    const Addr pr = pt + 1024;
                    soc.write_mem(pd, data.data(), n);
                    soc.write_mem(pt, table.data(), 1024);
                    return std::pair{kernels::host_crc32(n),
                                     std::vector<u64>{pd, pt, pr}};
                  }});

  list.push_back({"fir", [](core::HulkVSoc& soc) {
                    const u32 n = 16384, taps = 32;
                    Xoshiro256 rng(2);
                    std::vector<i32> x(n), h(taps);
                    for (auto& v : x)
                      v = static_cast<i32>(rng.next_range(-1000, 1000));
                    for (auto& v : h)
                      v = static_cast<i32>(rng.next_range(-16, 16));
                    const Addr px = core::layout::kSharedBase;
                    const Addr ph = px + n * 4;
                    const Addr py = ph + taps * 4;
                    soc.write_mem(px, x.data(), n * 4);
                    soc.write_mem(ph, h.data(), taps * 4);
                    return std::pair{kernels::host_fir_i32(n, taps),
                                     std::vector<u64>{px, ph, py}};
                  }});

  list.push_back({"sort", [](core::HulkVSoc& soc) {
                    const u32 n = 16384;
                    Xoshiro256 rng(3);
                    std::vector<i32> data(n);
                    for (auto& v : data)
                      v = static_cast<i32>(rng.next_range(-1000000, 1000000));
                    const Addr pd = core::layout::kSharedBase;
                    soc.write_mem(pd, data.data(), n * 4);
                    return std::pair{kernels::host_shell_sort(n),
                                     std::vector<u64>{pd}};
                  }});

  list.push_back({"histogram", [](core::HulkVSoc& soc) {
                    const u32 n = 96 * 1024;  // fits the 128 kB LLC (embedded working set)
                    Xoshiro256 rng(4);
                    std::vector<u8> data(n);
                    for (auto& b : data) b = static_cast<u8>(rng.next());
                    const Addr pd = core::layout::kSharedBase;
                    const Addr pb = pd + n;
                    soc.write_mem(pd, data.data(), n);
                    return std::pair{kernels::host_histogram(n),
                                     std::vector<u64>{pd, pb}};
                  }});

  list.push_back({"strsearch", [](core::HulkVSoc& soc) {
                    const u32 n = 96 * 1024, m = 8;
                    Xoshiro256 rng(5);
                    std::vector<u8> hay(n);
                    for (auto& b : hay)
                      b = static_cast<u8>('a' + rng.next_below(4));
                    const std::string needle = "abcdabcd";
                    const Addr ph = core::layout::kSharedBase;
                    const Addr pn = ph + n;
                    const Addr pr = pn + 64;
                    soc.write_mem(ph, hay.data(), n);
                    soc.write_mem(pn, needle.data(), m);
                    return std::pair{kernels::host_strsearch(n, m),
                                     std::vector<u64>{ph, pn, pr}};
                  }});

  return list;
}

}  // namespace

int main(int argc, char** argv) {
  namespace report = hulkv::report;
  const report::BenchOptions options = report::bench_args_or_exit(argc, argv);
  profile::configure(options);
  telemetry::configure(options);

  report::MetricsReport rep("fig8_llc_effect");
  rep.add_note("Fig. 8 — Last Level Cache effect on IoT benchmarks. "
               "Execution time normalised to DDR4+LLC (lower is better).");

  report::Table& table = rep.add_table(
      "normalised execution time",
      {"benchmark", "ddr4_llc", "hyper_llc", "ddr4", "hyper",
       "hyper_llc_gap_pct"});
  // One job per (workload, memory configuration) point on the sweep
  // pool; rows assemble from the result slots in grid order.
  constexpr std::array<std::pair<core::MainMemoryKind, bool>, 4> kConfigs = {
      std::pair{core::MainMemoryKind::kDdr4, true},
      std::pair{core::MainMemoryKind::kHyperRam, true},
      std::pair{core::MainMemoryKind::kDdr4, false},
      std::pair{core::MainMemoryKind::kHyperRam, false}};
  const std::vector<Workload> list = workloads();
  const batch::SweepEngine engine(options.jobs);
  const std::vector<Cycles> cycles = engine.map<Cycles>(
      list.size() * kConfigs.size(), [&](u64 index) {
        const auto& [kind, llc] = kConfigs[index % kConfigs.size()];
        return run_on(list[index / kConfigs.size()], kind, llc);
      });
  double worst_gap = 0;
  for (size_t row = 0; row < list.size(); ++row) {
    const Cycles* c = &cycles[row * kConfigs.size()];
    const double base = static_cast<double>(c[0]);
    const double gap = 100.0 * (c[1] / base - 1.0);
    worst_gap = std::max(worst_gap, gap);
    table.add_row({report::Value::text(list[row].name),
                   report::Value::number(1.0, 3),
                   report::Value::number(c[1] / base, 3),
                   report::Value::number(c[2] / base, 3),
                   report::Value::number(c[3] / base, 3),
                   report::Value::number(gap, 2)});
  }
  rep.add_metric("worst_gap_pct", report::Value::number(worst_gap, 2), "%");
  rep.add_note("Shape check (paper): cases 1 and 2 are 'closer than 5%'. "
               "Worst measured gap: " + rep.metric_text("worst_gap_pct") +
               "%");
  profile::finish_bench(rep, options);
  report::finish_bench(rep, options);
  telemetry::finish_bench(rep, options);
  return 0;
}
