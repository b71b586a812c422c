// Energy accounting: combine simulator cycle counts with the power model
// to produce the GOps / GOps/W numbers of Figs. 6 and 9, using the
// paper's own methodology (ops-per-cycle from emulation x per-block power
// from PrimeTime — section VI).
#pragma once

#include "core/soc.hpp"
#include "power/power_model.hpp"

namespace hulkv::power {

/// What ran during a measured interval, in cycles of the simulation
/// clock, plus per-block activity factors (fraction of peak switching).
struct RunActivity {
  Cycles duration = 0;          // simulation-clock cycles of the interval
  double host_activity = 0.0;   // 0 = clock-gated, 1 = peak switching
  double cluster_activity = 0;  // idem for the PMCA
  double soc_activity = 0.5;    // "Top" block (interconnect, L2, LLC)
  Cycles mem_busy_cycles = 0;   // external-memory device busy time
  core::MainMemoryKind memory = core::MainMemoryKind::kHyperRam;
};

/// Energy split of one interval, in millijoules, plus the wall time
/// after applying the frequency plan.
struct EnergyReport {
  double seconds = 0;
  double host_mj = 0;
  double cluster_mj = 0;
  double soc_mj = 0;       // Top block
  double mem_ctrl_mj = 0;  // on-chip memory controller
  double mem_device_mj = 0;  // off-chip HyperRAM or LPDDR4 subsystem
  double total_mj = 0;
  double avg_power_mw = 0;
};

/// Compute the energy of an interval. Cycle counts are converted to
/// seconds with the *SoC domain* frequency (the single simulation clock
/// corresponds to the host-domain clock; see DESIGN.md section 4); each
/// block's power is evaluated at its own Table II frequency so the
/// cycles-at-fmax methodology of the paper is preserved.
EnergyReport compute_energy(const RunActivity& activity,
                            const PowerModel& model,
                            const core::FrequencyPlan& freq);

/// GOps delivered: `ops` operations over `cycles` of a domain running at
/// `freq_mhz` after frequency scaling (the paper's Ops/Cycle x f).
double gops(u64 ops, Cycles cycles, double freq_mhz);

/// GOps/W = ops / energy. `energy_mj` from compute_energy.
double gops_per_watt(u64 ops, double energy_mj);

}  // namespace hulkv::power
