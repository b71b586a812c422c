#include "power/energy.hpp"

namespace hulkv::power {

EnergyReport compute_energy(const RunActivity& activity,
                            const PowerModel& model,
                            const core::FrequencyPlan& freq) {
  EnergyReport report;
  if (activity.duration == 0) return report;
  const double mem_busy_fraction =
      std::min(1.0, static_cast<double>(activity.mem_busy_cycles) /
                        static_cast<double>(activity.duration));

  // One simulation cycle is one SoC-domain cycle (the paper's FPGA
  // emulation samples counters in that domain).
  report.seconds =
      static_cast<double>(activity.duration) / (freq.soc_mhz * 1e6);

  // Per-block energy: power(mW) * time(s) = mJ. Idle blocks still leak.
  const auto block_mj = [&](const BlockPower& block, double freq_mhz,
                            double alpha) {
    return block.power_mw(freq_mhz, alpha) * report.seconds;
  };

  report.host_mj = block_mj(model.cva6, freq.host_mhz, activity.host_activity);
  report.cluster_mj =
      block_mj(model.pmca, freq.cluster_mhz, activity.cluster_activity);
  report.soc_mj = block_mj(model.top, freq.soc_mhz, activity.soc_activity);
  report.mem_ctrl_mj =
      block_mj(model.mem_ctrl, freq.soc_mhz, mem_busy_fraction);

  double active_mw = model.lpddr4_active_mw;
  double standby_mw = model.lpddr4_standby_mw;
  switch (activity.memory) {
    case core::MainMemoryKind::kHyperRam:
      active_mw = model.hyperram_active_mw;
      standby_mw = model.hyperram_standby_mw;
      break;
    case core::MainMemoryKind::kRpcDram:
      active_mw = model.rpcdram_active_mw;
      standby_mw = model.rpcdram_standby_mw;
      break;
    case core::MainMemoryKind::kDdr4:
      break;  // LPDDR4 defaults
  }
  report.mem_device_mj =
      (standby_mw + (active_mw - standby_mw) * mem_busy_fraction) *
      report.seconds;

  report.total_mj = report.host_mj + report.cluster_mj + report.soc_mj +
                    report.mem_ctrl_mj + report.mem_device_mj;
  report.avg_power_mw = report.total_mj / report.seconds;
  return report;
}

double gops(u64 ops, Cycles cycles, double freq_mhz) {
  if (cycles == 0) return 0;
  const double ops_per_cycle =
      static_cast<double>(ops) / static_cast<double>(cycles);
  return ops_per_cycle * freq_mhz * 1e6 / 1e9;
}

double gops_per_watt(u64 ops, double energy_mj) {
  if (energy_mj <= 0) return 0;
  return static_cast<double>(ops) / (energy_mj * 1e-3) / 1e9;
}

}  // namespace hulkv::power
