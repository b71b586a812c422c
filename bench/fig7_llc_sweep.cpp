// Regenerates Fig. 7: the synthetic cache-stress benchmark (section
// VI-B) on the four memory configurations:
//   1) DDR4 + LLC   2) HyperRAM + LLC   3) DDR4 only   4) HyperRAM only
//
// Primary sweep (the paper's x-axis): the L1 miss ratio, dialled from
// 0% to 100% by mixing resident-window reads (hits) with thrash-window
// reads (misses) — "reads can either be in the 0th way, causing either a
// miss or a hit, or in a different cache way and hit". The thrash window
// fits the LLC, so cases 1/2 absorb the misses while cases 3/4 pay the
// raw device latency.
//
// Secondary sweep: footprint (stride) scan across the L1 -> LLC -> DRAM
// capacity boundaries.
//
// Every sweep point is an independent SoC, so the grid runs on the
// batch::SweepEngine worker pool (--jobs N, default hardware
// concurrency); rows are assembled from the result slots in grid order,
// so the output is byte-identical for every worker count.
#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "batch/batch.hpp"
#include "core/soc.hpp"
#include "kernels/iot_benchmarks.hpp"
#include "profile/profile.hpp"
#include "report/report.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace hulkv;

/// The four memory configurations of section VI-B, in column order.
constexpr std::array<std::pair<core::MainMemoryKind, bool>, 4> kConfigs = {
    std::pair{core::MainMemoryKind::kDdr4, true},
    std::pair{core::MainMemoryKind::kHyperRam, true},
    std::pair{core::MainMemoryKind::kDdr4, false},
    std::pair{core::MainMemoryKind::kHyperRam, false}};

struct Point {
  double miss_ratio;
  double cycles_per_read;
};

core::SocConfig make_config(core::MainMemoryKind kind, bool llc) {
  core::SocConfig cfg;
  cfg.main_memory = kind;
  cfg.enable_llc = llc;
  return cfg;
}

Point run_mixed(core::MainMemoryKind kind, bool llc, u32 miss_slots) {
  core::HulkVSoc soc(make_config(kind, llc));
  constexpr u32 kReads = 2048;
  constexpr u32 kRounds = 8;
  constexpr u32 kFootprint = 64 * 1024;  // > L1, fits the 128 kB LLC
  const Addr resident = core::layout::kSharedBase;
  const Addr thrash = resident + 4 * 1024;
  const std::array<u64, 2> args = {resident, thrash};
  // Warm-up round (paper: "the second iteration warms up the caches").
  kernels::run_host_program(
      soc, kernels::host_mixed_reads(miss_slots, kFootprint, kReads, 6),
      args);
  const auto run = kernels::run_host_program(
      soc,
      kernels::host_mixed_reads(miss_slots, kFootprint, kReads, kRounds)
          .words,
      args);
  auto& d = soc.host().dcache().stats();
  const double accesses =
      static_cast<double>(d.get("reads") + d.get("writes"));
  return {accesses == 0 ? 0
                        : static_cast<double>(d.get("misses")) / accesses,
          static_cast<double>(run.cycles) / (double{kReads} * kRounds)};
}

Point run_stride(core::MainMemoryKind kind, bool llc, u32 stride) {
  core::HulkVSoc soc(make_config(kind, llc));
  constexpr u32 kReads = 1024;
  constexpr u32 kRounds = 10;
  const std::array<u64, 1> args = {core::layout::kSharedBase};
  kernels::run_host_program(
      soc, kernels::host_stride_reads(stride, kReads, 2), args);
  const auto run = kernels::run_host_program(
      soc, kernels::host_stride_reads(stride, kReads, kRounds), args);
  auto& d = soc.host().dcache().stats();
  const double accesses =
      static_cast<double>(d.get("reads") + d.get("writes"));
  return {accesses == 0 ? 0
                        : static_cast<double>(d.get("misses")) / accesses,
          static_cast<double>(run.cycles) / (double{kReads} * kRounds)};
}

}  // namespace

int main(int argc, char** argv) {
  namespace report = hulkv::report;
  const report::BenchOptions options = report::bench_args_or_exit(argc, argv);
  profile::configure(options);
  telemetry::configure(options);

  report::MetricsReport rep("fig7_llc_sweep");
  rep.add_note("Fig. 7 — Sweep on Last Level Cache (synthetic benchmark). "
               "Primary sweep: cycles/read vs L1 miss ratio "
               "(thrash window 64 kB).");

  const batch::SweepEngine engine(options.jobs);

  report::Table& mixed = rep.add_table(
      "cycles per read vs L1 miss ratio",
      {"l1_miss_pct", "ddr4_llc", "hyper_llc", "ddr4", "hyper",
       "hyper_over_ddr4_no_llc"});
  const std::vector<u32> miss_grid = {0u, 2u,  4u,  6u, 8u,
                                      10u, 12u, 14u, 16u};
  // One job per (miss_slots, config) point, row-major in grid order.
  const std::vector<Point> mixed_points = engine.map<Point>(
      miss_grid.size() * kConfigs.size(), [&](u64 index) {
        const auto& [kind, llc] = kConfigs[index % kConfigs.size()];
        return run_mixed(kind, llc, miss_grid[index / kConfigs.size()]);
      });
  double max_no_llc_ratio = 0;
  for (size_t row = 0; row < miss_grid.size(); ++row) {
    const Point* p = &mixed_points[row * kConfigs.size()];
    const double ratio = p[3].cycles_per_read / p[2].cycles_per_read;
    max_no_llc_ratio = std::max(max_no_llc_ratio, ratio);
    mixed.add_row({report::Value::number(100.0 * p[1].miss_ratio, 1),
                   report::Value::number(p[0].cycles_per_read, 2),
                   report::Value::number(p[1].cycles_per_read, 2),
                   report::Value::number(p[2].cycles_per_read, 2),
                   report::Value::number(p[3].cycles_per_read, 2),
                   report::Value::number(ratio, 2)});
  }

  report::Table& strided = rep.add_table(
      "footprint scan (1024 reads x stride)",
      {"stride", "footprint_kb", "ddr4_llc", "hyper_llc", "ddr4", "hyper"});
  const std::vector<u32> stride_grid = {4u,   16u,  64u, 128u,
                                        256u, 512u, 1024u};
  const std::vector<Point> stride_points = engine.map<Point>(
      stride_grid.size() * kConfigs.size(), [&](u64 index) {
        const auto& [kind, llc] = kConfigs[index % kConfigs.size()];
        return run_stride(kind, llc, stride_grid[index / kConfigs.size()]);
      });
  for (size_t row = 0; row < stride_grid.size(); ++row) {
    const Point* p = &stride_points[row * kConfigs.size()];
    strided.add_row({report::Value::uinteger(stride_grid[row]),
                     report::Value::uinteger(stride_grid[row]),
                     report::Value::number(p[0].cycles_per_read, 2),
                     report::Value::number(p[1].cycles_per_read, 2),
                     report::Value::number(p[2].cycles_per_read, 2),
                     report::Value::number(p[3].cycles_per_read, 2)});
  }

  rep.add_metric("max_hyper_over_ddr4_no_llc",
                 report::Value::number(max_no_llc_ratio, 2), "x");
  rep.add_note("Shape check (paper): with the LLC, the HyperRAM "
               "configuration tracks DDR4 at every miss ratio; without it, "
               "the gap grows with the miss ratio, and below ~50% L1 "
               "misses DDR4 brings no benefit over HyperRAM.");
  profile::finish_bench(rep, options);
  report::finish_bench(rep, options);
  telemetry::finish_bench(rep, options);
  return 0;
}
