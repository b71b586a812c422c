// Regenerates Fig. 9: GOps and relative energy efficiency of the fully
// digital memory hierarchy (HyperRAM) against an LPDDR4-based equivalent,
// plotted against the computation-to-communication ratio CCR_hyper
// (compute time / main-memory read time, full overlap assumed).
//
// Workloads: the Fig. 6 DSP kernels on the PMCA, Dhrystone on the host,
// and the two end-to-end DNNs (MobileNetV1 classification, DroNet
// navigation) deployed with the DORY-style tiler. Each workload runs on
// both SoC configurations; the LPDDR4 configuration uses the idealised
// DDR timing plus the LPDDR4 subsystem power ([14]).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "apps/dory_tiler.hpp"
#include "apps/networks.hpp"
#include "common/half.hpp"
#include "common/rng.hpp"
#include "core/soc.hpp"
#include "kernels/cluster_kernels.hpp"
#include "kernels/iot_benchmarks.hpp"
#include "power/energy.hpp"
#include "profile/profile.hpp"
#include "report/report.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace hulkv;

constexpr Addr kTcdm = mem::map::kTcdmBase;
constexpr Addr kKernelL2 = mem::map::kL2Base + 256 * 1024;

struct Measurement {
  Cycles cycles = 0;       // wall cycles of the workload
  Cycles ext_busy = 0;     // external-memory busy cycles
  u64 ops = 0;
  bool on_host = false;    // Dhrystone runs on CVA6, the rest on the PMCA
};

struct Row {
  std::string name;
  double ccr;
  double gops_hyper, gops_lpddr;
  double eff_hyper, eff_lpddr;
  double rel_eff;
};

Cycles ext_busy_of(core::HulkVSoc& soc) {
  if (auto* h = soc.hyperram()) return h->stats().get("busy_cycles");
  return soc.ddr4()->stats().get("busy_cycles");
}

/// Runs one workload on a fresh SoC of the given memory kind.
using Runner = std::function<Measurement(core::HulkVSoc&)>;

Row evaluate(const std::string& name, const Runner& runner) {
  core::SocConfig hyper_cfg;  // HyperRAM + LLC
  core::SocConfig ddr_cfg;
  ddr_cfg.main_memory = core::MainMemoryKind::kDdr4;

  core::HulkVSoc hyper_soc(hyper_cfg), ddr_soc(ddr_cfg);
  const Measurement hyper = runner(hyper_soc);
  const Measurement ddr = runner(ddr_soc);

  const power::PowerModel pm;
  const core::FrequencyPlan freq;
  const double domain_mhz = hyper.on_host ? freq.host_mhz : freq.cluster_mhz;

  // CCR_hyper: compute time (the DDR run is the compute proxy: its
  // memory is an order of magnitude faster than the SoC) over the time
  // spent reading from the HyperRAM.
  const double ccr = hyper.ext_busy == 0
                         ? 99.0
                         : static_cast<double>(ddr.cycles) /
                               static_cast<double>(hyper.ext_busy);

  const auto energy_of = [&](const Measurement& m,
                             core::MainMemoryKind kind) {
    power::RunActivity activity;
    activity.duration = m.cycles;
    activity.host_activity = m.on_host ? 1.0 : 0.05;
    activity.cluster_activity = m.on_host ? 0.0 : 1.0;
    activity.mem_busy_cycles = m.ext_busy;
    activity.memory = kind;
    return power::compute_energy(activity, pm, freq);
  };

  const auto e_hyper = energy_of(hyper, core::MainMemoryKind::kHyperRam);
  const auto e_lpddr = energy_of(ddr, core::MainMemoryKind::kDdr4);

  Row row;
  row.name = name;
  row.ccr = ccr;
  row.gops_hyper = power::gops(hyper.ops, hyper.cycles, domain_mhz);
  row.gops_lpddr = power::gops(ddr.ops, ddr.cycles, domain_mhz);
  row.eff_hyper = power::gops_per_watt(hyper.ops, e_hyper.total_mj);
  row.eff_lpddr = power::gops_per_watt(ddr.ops, e_lpddr.total_mj);
  row.rel_eff = row.eff_hyper / row.eff_lpddr;
  return row;
}

Runner cluster_kernel_runner(const kernels::KernelProgram& program,
                             std::vector<u32> args,
                             const std::vector<std::pair<u64, u64>>& bufs) {
  return [program, args, bufs](core::HulkVSoc& soc) -> Measurement {
    Xoshiro256 rng(7);
    for (const auto& [addr, bytes] : bufs) {
      std::vector<u8> data(bytes);
      for (auto& b : data) b = static_cast<u8>(rng.next());
      soc.write_mem(addr, data.data(), bytes);
    }
    soc.load_program(kKernelL2, program.words);
    profile::session().register_symbols(kKernelL2, program.words.size() * 4,
                                        program.name, program.symbols);
    soc.write_mem(kTcdm, args.data(), args.size() * 4);
    const Cycles busy0 = ext_busy_of(soc);
    const auto result = soc.cluster().run_kernel(0, kKernelL2,
                                                 static_cast<u32>(kTcdm));
    return {result.cycles, ext_busy_of(soc) - busy0, program.ops, false};
  };
}

Runner dhrystone_runner() {
  return [](core::HulkVSoc& soc) -> Measurement {
    const Addr b1 = core::layout::kSharedBase;
    const Addr b2 = b1 + 128;
    std::vector<u8> buf(64, 0x41);
    soc.write_mem(b1, buf.data(), 64);
    const auto program = kernels::host_dhrystone_mix(20000);
    const Cycles busy0 = ext_busy_of(soc);
    const auto run = kernels::run_host_program(soc, program,
                                               std::array<u64, 2>{b1, b2});
    // Dhrystone "operations" = retired instructions (the usual DMIPS
    // convention scaled to ops).
    return {run.cycles, ext_busy_of(soc) - busy0, run.instret, true};
  };
}

Runner dnn_runner(const apps::Network& network) {
  return [network](core::HulkVSoc& soc) -> Measurement {
    apps::DoryTiler tiler(&soc, {});
    const Cycles busy0 = ext_busy_of(soc);
    const auto sched = tiler.run(network);
    return {sched.total_cycles, ext_busy_of(soc) - busy0, 2 * sched.macs,
            false};
  };
}

}  // namespace

int main(int argc, char** argv) {
  namespace report = hulkv::report;
  const report::BenchOptions options = report::bench_args_or_exit(argc, argv);
  profile::configure(options);
  telemetry::configure(options);

  report::MetricsReport rep("fig9_energy_eff");
  rep.add_note("Fig. 9 — HULK-V energy efficiency vs CCR_hyper (HyperRAM "
               "hierarchy vs LPDDR4-equivalent; DNNs deployed with the "
               "DORY-style tiler)");

  std::vector<std::pair<std::string, Runner>> workloads;

  // DSP kernels on the PMCA (same problem sizes as Fig. 6).
  {
    const u32 m = 64, n = 64, k = 64;
    const Addr pa = core::layout::kSharedBase;
    const Addr pbt = pa + m * k;
    const Addr pc = pbt + n * k + 64;
    const u32 a_l1 = kTcdm + 0x100;
    workloads.emplace_back(
        "matmul-int8",
        cluster_kernel_runner(
            kernels::cluster_matmul_i8(m, n, k),
            {static_cast<u32>(pa), static_cast<u32>(pbt),
             static_cast<u32>(pc), a_l1, a_l1 + m * k, a_l1 + m * k + n * k},
            {{pa, m * k}, {pbt, static_cast<u64>(n) * k}}));
  }
  {
    const u32 n = 16384;
    const Addr px = core::layout::kSharedBase;
    const Addr py = px + n * 2;
    const u16 ah = float_to_half_bits(0.5f);
    const u32 x_l1 = kTcdm + 0x100;
    workloads.emplace_back(
        "axpy-fp16",
        cluster_kernel_runner(
            kernels::cluster_axpy_f16(n),
            {static_cast<u32>(px), static_cast<u32>(py),
             ah | (static_cast<u32>(ah) << 16), x_l1, x_l1 + n * 2},
            {{px, n * 2ull}, {py, n * 2ull}}));
  }
  {
    const u32 n = 4096, taps = 32;
    const Addr px = core::layout::kSharedBase;
    const Addr ph = px + n;
    const Addr py = ph + 64;
    const u32 x_l1 = kTcdm + 0x100;
    workloads.emplace_back(
        "fir-int8",
        cluster_kernel_runner(kernels::cluster_fir_i8(n, taps),
                              {static_cast<u32>(px), static_cast<u32>(ph),
                               static_cast<u32>(py), x_l1, x_l1 + n,
                               x_l1 + n + 64},
                              {{px, n}, {ph, taps}}));
  }
  workloads.emplace_back("dhrystone", dhrystone_runner());
  workloads.emplace_back("mobilenet-v1", dnn_runner(apps::mobilenet_v1_128()));
  workloads.emplace_back("dronet", dnn_runner(apps::dronet_200()));

  std::vector<Row> rows;
  for (const auto& [name, runner] : workloads) {
    rows.push_back(evaluate(name, runner));
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.ccr > b.ccr; });

  report::Table& table = rep.add_table(
      "GOps and relative efficiency vs CCR_hyper",
      {"workload", "ccr_hyper", "gops_hyper", "gops_lpddr4", "gops_w_hyper",
       "gops_w_lpddr4", "rel_eff"});
  double best_rel_eff = 0;
  for (const Row& row : rows) {
    best_rel_eff = std::max(best_rel_eff, row.rel_eff);
    table.add_row({report::Value::text(row.name),
                   report::Value::number(row.ccr, 2),
                   report::Value::number(row.gops_hyper, 2),
                   report::Value::number(row.gops_lpddr, 2),
                   report::Value::number(row.eff_hyper, 1),
                   report::Value::number(row.eff_lpddr, 1),
                   report::Value::number(row.rel_eff, 2)});
  }
  rep.add_metric("best_rel_eff", report::Value::number(best_rel_eff, 2),
                 "x");
  rep.add_note("Shape check (paper): compute-bound workloads (CCR > 1) "
               "reach the same GOps on both memories but ~2x the energy "
               "efficiency on the fully digital hierarchy; memory-bound "
               "workloads gain GOps from LPDDR4 bandwidth.");
  profile::finish_bench(rep, options);
  report::finish_bench(rep, options);
  telemetry::finish_bench(rep, options);
  return 0;
}
