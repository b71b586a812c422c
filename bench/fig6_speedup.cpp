// Regenerates Fig. 6: PMCA-vs-CVA6 speedup on the DSP kernels (left
// plot: kernel executed once — including the lazy OpenMP code load — and
// 1000 times, amortising it) and energy efficiency in GOps/W (right
// plot), using the paper's methodology: ops/cycle from the simulator x
// Table II power at each domain's maximum frequency.
//
// Host kernels run at full precision (int32/fp32, no SIMD on CVA6);
// cluster kernels at reduced precision (int8/fp16 SIMD), as in the paper.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/half.hpp"
#include "common/rng.hpp"
#include "core/soc.hpp"
#include "kernels/cluster_kernels.hpp"
#include "kernels/host_kernels.hpp"
#include "power/energy.hpp"
#include "power/power_model.hpp"
#include "profile/profile.hpp"
#include "report/report.hpp"
#include "telemetry/telemetry.hpp"
#include "runtime/offload.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/trace.hpp"

namespace {

using namespace hulkv;

constexpr Addr kTcdm = mem::map::kTcdmBase;

struct BenchCase {
  std::string label;
  kernels::KernelProgram host;
  kernels::KernelProgram device;
  std::vector<u64> host_args;
  std::vector<u32> device_args;
};

/// Prepares data on the given SoC and describes the two programs.
using Setup = std::function<BenchCase(core::HulkVSoc&,
                                      runtime::OffloadRuntime&, Xoshiro256&)>;

struct Row {
  std::string label;
  double speedup_x1 = 0;
  double speedup_x1000 = 0;
  double host_gops = 0;
  double device_gops = 0;
  double host_eff = 0;
  double device_eff = 0;
};

Addr alloc_random(core::HulkVSoc& soc, runtime::OffloadRuntime& rt,
                  Xoshiro256& rng, u64 bytes) {
  const Addr p = rt.hulk_malloc(bytes);
  std::vector<u8> data(bytes);
  for (auto& b : data) b = static_cast<u8>(rng.next());
  soc.write_mem(p, data.data(), bytes);
  return p;
}

/// Device-side buffers live in the L2SPM, like a staged PULP workload:
/// the kernel measurement covers L2 <-> TCDM DMA + compute, not the
/// external-memory streaming (that is Fig. 9's axis).
Addr alloc_random_l2(core::HulkVSoc& soc, runtime::OffloadRuntime& rt,
                     Xoshiro256& rng, u64 bytes) {
  const Addr p = rt.l2_arena().alloc(bytes, 64);
  std::vector<u8> data(bytes);
  for (auto& b : data) b = static_cast<u8>(rng.next());
  soc.write_mem(p, data.data(), bytes);
  return p;
}

Addr alloc_random_l2_f16(core::HulkVSoc& soc, runtime::OffloadRuntime& rt,
                         Xoshiro256& rng, u64 count) {
  const Addr p = rt.l2_arena().alloc(count * 2, 64);
  std::vector<u16> data(count);
  for (auto& v : data) {
    v = float_to_half_bits(static_cast<float>(rng.next_range(-64, 64)) /
                           16.0f);
  }
  soc.write_mem(p, data.data(), count * 2);
  return p;
}

Addr alloc_random_f32(core::HulkVSoc& soc, runtime::OffloadRuntime& rt,
                      Xoshiro256& rng, u64 count) {
  const Addr p = rt.hulk_malloc(count * 4);
  std::vector<float> data(count);
  for (auto& v : data) v = static_cast<float>(rng.next_range(-64, 64)) / 16.0f;
  soc.write_mem(p, data.data(), count * 4);
  return p;
}

Row run_case(const Setup& setup) {
  core::HulkVSoc soc;  // the shipped SoC: HyperRAM + LLC
  runtime::OffloadRuntime rt(&soc);
  Xoshiro256 rng(12345);
  BenchCase bench = setup(soc, rt, rng);

  const auto host_run =
      kernels::run_host_program(soc, bench.host, bench.host_args);

  const auto handle =
      rt.register_kernel(bench.label, bench.device.words,
                         bench.device.symbols);
  const auto cold = rt.offload(handle, bench.device_args);  // lazy load
  const auto warm = rt.offload(handle, bench.device_args);

  Row row;
  row.label = bench.label;
  const double host_cycles = static_cast<double>(host_run.cycles);
  row.speedup_x1 = host_cycles / static_cast<double>(cold.total);
  row.speedup_x1000 =
      1000.0 * host_cycles /
      static_cast<double>(cold.code_load + 1000.0 * warm.total);

  const power::PowerModel pm;
  const core::FrequencyPlan freq;
  row.host_gops =
      power::gops(bench.host.ops, host_run.cycles, freq.host_mhz);
  row.device_gops =
      power::gops(bench.device.ops, warm.kernel, freq.cluster_mhz);
  row.host_eff = row.host_gops / (pm.cva6.max_power_mw() * 1e-3);
  row.device_eff = row.device_gops / (pm.pmca.max_power_mw() * 1e-3);
  return row;
}

Setup matmul_int_case() {
  return [](core::HulkVSoc& soc, runtime::OffloadRuntime& rt,
            Xoshiro256& rng) {
    const u32 m = 96, n = 96, k = 96;
    BenchCase b;
    b.label = "matmul-int";
    b.host = kernels::host_matmul_i32(m, n, k);
    b.device = kernels::cluster_matmul_i8(m, n, k);
    const Addr pa32 = alloc_random(soc, rt, rng, u64{m} * k * 4);
    const Addr pb32 = alloc_random(soc, rt, rng, u64{k} * n * 4);
    const Addr pc32 = rt.hulk_malloc(u64{m} * n * 4);
    b.host_args = {pa32, pb32, pc32};
    const Addr pa = alloc_random_l2(soc, rt, rng, u64{m} * k);
    const Addr pbt = alloc_random_l2(soc, rt, rng, u64{n} * k);
    const Addr pc = rt.l2_arena().alloc(u64{m} * n * 4, 64);
    const u32 a_l1 = kTcdm + 0x100;
    const u32 bt_l1 = a_l1 + m * k;
    const u32 c_l1 = bt_l1 + n * k;
    b.device_args = {static_cast<u32>(pa),  static_cast<u32>(pbt),
                     static_cast<u32>(pc),  a_l1, bt_l1, c_l1};
    return b;
  };
}

Setup conv_int_case() {
  return [](core::HulkVSoc& soc, runtime::OffloadRuntime& rt,
            Xoshiro256& rng) {
    const u32 h = 64, w = 64;
    BenchCase b;
    b.label = "conv3x3-int";
    b.host = kernels::host_conv3x3_i32(h, w);
    b.device = kernels::cluster_conv3x3_i8(h, w);
    const Addr pi32 = alloc_random(soc, rt, rng, u64{h} * w * 4);
    const Addr pk32 = alloc_random(soc, rt, rng, 36);
    const Addr po32 = rt.hulk_malloc(u64{h - 2} * (w - 2) * 4);
    b.host_args = {pi32, pk32, po32};
    const Addr pi = alloc_random_l2(soc, rt, rng, u64{h} * w);
    const Addr pk = alloc_random_l2(soc, rt, rng, 12);
    const Addr po = rt.l2_arena().alloc(u64{h - 2} * (w - 2) * 4, 64);
    const u32 img_l1 = kTcdm + 0x100;
    const u32 ker_l1 = img_l1 + h * w;
    const u32 out_l1 = ker_l1 + 16;
    b.device_args = {static_cast<u32>(pi),  static_cast<u32>(pk),
                     static_cast<u32>(po),  img_l1, ker_l1, out_l1};
    return b;
  };
}

Setup fir_int_case() {
  return [](core::HulkVSoc& soc, runtime::OffloadRuntime& rt,
            Xoshiro256& rng) {
    const u32 n = 4096, taps = 32;
    BenchCase b;
    b.label = "fir-int";
    b.host = kernels::host_fir_i32(n, taps);
    b.device = kernels::cluster_fir_i8(n, taps);
    const Addr px32 = alloc_random(soc, rt, rng, u64{n} * 4);
    const Addr ph32 = alloc_random(soc, rt, rng, u64{taps} * 4);
    const Addr py32 = rt.hulk_malloc(u64{n} * 4);
    b.host_args = {px32, ph32, py32};
    const Addr px = alloc_random_l2(soc, rt, rng, n);
    const Addr ph = alloc_random_l2(soc, rt, rng, taps);
    const Addr py = rt.l2_arena().alloc(u64{n} * 4, 64);
    const u32 x_l1 = kTcdm + 0x100;
    const u32 h_l1 = x_l1 + n;
    const u32 y_l1 = h_l1 + 64;
    b.device_args = {static_cast<u32>(px),  static_cast<u32>(ph),
                     static_cast<u32>(py),  x_l1, h_l1, y_l1};
    return b;
  };
}

Setup matmul_fp_case() {
  return [](core::HulkVSoc& soc, runtime::OffloadRuntime& rt,
            Xoshiro256& rng) {
    const u32 m = 48, n = 48, k = 48;
    BenchCase b;
    b.label = "matmul-fp";
    b.host = kernels::host_matmul_f32(m, n, k);
    b.device = kernels::cluster_matmul_f16(m, n, k);
    const Addr pa32 = alloc_random_f32(soc, rt, rng, u64{m} * k);
    const Addr pb32 = alloc_random_f32(soc, rt, rng, u64{k} * n);
    const Addr pc32 = rt.hulk_malloc(u64{m} * n * 4);
    b.host_args = {pa32, pb32, pc32};
    const Addr pa = alloc_random_l2_f16(soc, rt, rng, u64{m} * k);
    const Addr pbt = alloc_random_l2_f16(soc, rt, rng, u64{n} * k);
    const Addr pc = rt.l2_arena().alloc(u64{m} * n * 4, 64);
    const u32 a_l1 = kTcdm + 0x100;
    const u32 bt_l1 = a_l1 + m * k * 2;
    const u32 c_l1 = bt_l1 + n * k * 2;
    b.device_args = {static_cast<u32>(pa),  static_cast<u32>(pbt),
                     static_cast<u32>(pc),  a_l1, bt_l1, c_l1};
    return b;
  };
}

Setup axpy_fp_case() {
  return [](core::HulkVSoc& soc, runtime::OffloadRuntime& rt,
            Xoshiro256& rng) {
    const u32 n = 16384;
    BenchCase b;
    b.label = "axpy-fp";
    b.host = kernels::host_axpy_f32(n);
    b.device = kernels::cluster_axpy_f16(n);
    const Addr px32 = alloc_random_f32(soc, rt, rng, n);
    const Addr py32 = alloc_random_f32(soc, rt, rng, n);
    const Addr palpha = rt.hulk_malloc(4);
    const float alpha = 0.75f;
    soc.write_mem(palpha, &alpha, 4);
    b.host_args = {px32, py32, palpha};
    const Addr px = alloc_random_l2_f16(soc, rt, rng, n);
    const Addr py = alloc_random_l2_f16(soc, rt, rng, n);
    const u16 ah = float_to_half_bits(alpha);
    const u32 alpha_pair = ah | (static_cast<u32>(ah) << 16);
    const u32 x_l1 = kTcdm + 0x100;
    const u32 y_l1 = x_l1 + n * 2;
    b.device_args = {static_cast<u32>(px), static_cast<u32>(py), alpha_pair,
                     x_l1, y_l1};
    return b;
  };
}

Setup dotp_fp_case() {
  return [](core::HulkVSoc& soc, runtime::OffloadRuntime& rt,
            Xoshiro256& rng) {
    const u32 n = 16384;
    BenchCase b;
    b.label = "dotp-fp";
    b.host = kernels::host_dotp_f32(n);
    b.device = kernels::cluster_dotp_f16(n);
    const Addr px32 = alloc_random_f32(soc, rt, rng, n);
    const Addr py32 = alloc_random_f32(soc, rt, rng, n);
    const Addr pr = rt.hulk_malloc(4);
    b.host_args = {px32, py32, pr};
    const Addr px = alloc_random_l2_f16(soc, rt, rng, n);
    const Addr py = alloc_random_l2_f16(soc, rt, rng, n);
    const u32 x_l1 = kTcdm + 0x100;
    const u32 y_l1 = x_l1 + n * 2;
    const u32 part_l1 = y_l1 + n * 2;
    const u32 res_l1 = part_l1 + 64;
    b.device_args = {static_cast<u32>(px), static_cast<u32>(py), x_l1, y_l1,
                     part_l1, res_l1};
    return b;
  };
}

}  // namespace

int main(int argc, char** argv) {
  namespace report = hulkv::report;
  const report::BenchOptions options =
      report::bench_args_or_exit(argc, argv, {.writes_trace = true});
  profile::configure(options);
  telemetry::configure(options);
  if (!options.trace_path.empty()) trace::sink().enable();

  report::MetricsReport rep("fig6_speedup");
  rep.add_note("Fig. 6 — PMCA vs CVA6 speedup and energy efficiency. "
               "SoC: HyperRAM + LLC. x1 includes the lazy OpenMP code "
               "load; x1000 amortises it.");

  const std::vector<Setup> cases = {matmul_int_case(), conv_int_case(),
                                    fir_int_case(),    matmul_fp_case(),
                                    axpy_fp_case(),    dotp_fp_case()};

  report::Table& table = rep.add_table(
      "speedup and efficiency",
      {"kernel", "speedup_x1", "speedup_x1000", "cva6_gops", "pmca_gops",
       "cva6_gops_w", "pmca_gops_w", "eff_ratio"});

  double max_speedup = 0, max_eff = 0;
  for (const Setup& setup : cases) {
    const Row row = run_case(setup);
    table.add_row({report::Value::text(row.label),
                   report::Value::number(row.speedup_x1, 1),
                   report::Value::number(row.speedup_x1000, 1),
                   report::Value::number(row.host_gops, 2),
                   report::Value::number(row.device_gops, 2),
                   report::Value::number(row.host_eff, 1),
                   report::Value::number(row.device_eff, 1),
                   report::Value::number(row.device_eff / row.host_eff, 1)});
    max_speedup = std::max(max_speedup, row.speedup_x1000);
    max_eff = std::max(max_eff, row.device_eff);
  }
  rep.add_metric("max_speedup_x1000", report::Value::number(max_speedup, 1),
                 "x");
  rep.add_metric("max_pmca_gops_w", report::Value::number(max_eff, 1),
                 "GOps/W");
  rep.add_note("Headlines: max speedup " + rep.metric_text(
                   "max_speedup_x1000") + "x (paper: up to 112x); max PMCA "
               "efficiency " + rep.metric_text("max_pmca_gops_w") +
               " GOps/W (paper: up to 157)");
  profile::finish_bench(rep, options);
  report::finish_bench(rep, options);
  telemetry::finish_bench(rep, options);
  if (!options.trace_path.empty()) {
    trace::write_chrome_trace_file(options.trace_path, trace::sink());
  }
  return 0;
}
