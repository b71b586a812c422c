// Regenerates Fig. 8: the five IoT CPU-centric benchmarks on the four
// memory configurations, normalised to DDR4+LLC. The paper's claim:
// with the LLC, HyperRAM and DDR4 are "closer than 5%" — LPDDR/DDR
// memories would be oversized for these workloads.
#include <array>
#include <cstdio>
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

Cycles run_on(const kernels::IotBenchmark& benchmark,
              core::MainMemoryKind kind, bool llc) {
  core::SocConfig cfg;
  cfg.main_memory = kind;
  cfg.enable_llc = llc;
  core::HulkVSoc soc(cfg);
  const kernels::IotSetup setup = benchmark.setup(soc, /*scale=*/1);
  // Steady-state measurement: warm run, then the timed run (benchmarks
  // are conventionally repeated; the caches stay warm across runs).
  kernels::run_host_program(soc, setup.program, setup.args);
  return kernels::run_host_program(soc, setup.program, setup.args).cycles;
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
  const auto list = kernels::iot_benchmarks();
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
