// Heterogeneous offload demo (the paper's flagship workload): an int8
// matrix multiplication offloaded to the PMCA via the OpenMP-style
// runtime, verified against the host result and the golden model, with
// the speedup and the lazy-code-load overhead reported.
#include <cstdio>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/soc.hpp"
#include "kernels/cluster_kernels.hpp"
#include "kernels/golden.hpp"
#include "kernels/host_kernels.hpp"
#include "report/report.hpp"
#include "runtime/offload.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/trace.hpp"

using namespace hulkv;

int main(int argc, char** argv) {
  // `--trace out.json` records the full SoC event trace and writes a
  // Perfetto/Chrome-loadable file (chrome://tracing or ui.perfetto.dev).
  const report::BenchOptions options =
      report::bench_args_or_exit(argc, argv, {.writes_trace = true});
  if (!options.trace_path.empty()) trace::sink().enable();

  const u32 m = 48, n = 48, k = 64;
  core::HulkVSoc soc;  // HyperRAM + LLC
  runtime::OffloadRuntime rt(&soc);
  set_log_clock([&soc]() { return soc.host().now(); });
  Xoshiro256 rng(2023);

  // Shared buffers via hulk_malloc(): visible to both address spaces.
  std::vector<i8> a(m * k), bt(n * k);
  for (auto& v : a) v = static_cast<i8>(rng.next_range(-128, 127));
  for (auto& v : bt) v = static_cast<i8>(rng.next_range(-128, 127));
  const Addr pa = rt.hulk_malloc(a.size());
  const Addr pbt = rt.hulk_malloc(bt.size());
  const Addr pc = rt.hulk_malloc(u64{m} * n * 4);
  soc.write_mem(pa, a.data(), a.size());
  soc.write_mem(pbt, bt.data(), bt.size());

  // Host baseline: int32 scalar matmul over the same problem (B is the
  // transpose of BT; build it in shared memory).
  std::vector<i32> a32(m * k), b32(k * n);
  for (u32 i = 0; i < m * k; ++i) a32[i] = a[i];
  for (u32 row = 0; row < k; ++row) {
    for (u32 col = 0; col < n; ++col) b32[row * n + col] = bt[col * k + row];
  }
  const Addr qa = rt.hulk_malloc(a32.size() * 4);
  const Addr qb = rt.hulk_malloc(b32.size() * 4);
  const Addr qc = rt.hulk_malloc(u64{m} * n * 4);
  soc.write_mem(qa, a32.data(), a32.size() * 4);
  soc.write_mem(qb, b32.data(), b32.size() * 4);

  const auto host_prog = kernels::host_matmul_i32(m, n, k);
  const auto host_run = kernels::run_host_program(
      soc, host_prog.words, std::array<u64, 3>{qa, qb, qc});
  std::printf("CVA6 (int32 scalar):   %10llu cycles\n",
              static_cast<unsigned long long>(host_run.cycles));

  // PMCA offload (int8 SIMD).
  const u32 tcdm = static_cast<u32>(mem::map::kTcdmBase);
  const u32 a_l1 = tcdm + 0x100;
  const u32 bt_l1 = a_l1 + m * k;
  const u32 c_l1 = bt_l1 + n * k;
  const auto handle =
      rt.register_kernel("matmul_i8", kernels::cluster_matmul_i8(m, n, k).words);
  const std::array<u32, 6> args = {
      static_cast<u32>(pa),  static_cast<u32>(pbt), static_cast<u32>(pc),
      a_l1,                  bt_l1,                 c_l1};

  const auto cold = rt.offload(handle, args);
  const auto warm = rt.offload(handle, args);
  std::printf("PMCA, first offload:   %10llu cycles "
              "(lazy code load: %llu)\n",
              static_cast<unsigned long long>(cold.total),
              static_cast<unsigned long long>(cold.code_load));
  std::printf("PMCA, warm offload:    %10llu cycles\n",
              static_cast<unsigned long long>(warm.total));
  std::printf("speedup: %.1fx cold, %.1fx warm\n",
              static_cast<double>(host_run.cycles) / cold.total,
              static_cast<double>(host_run.cycles) / warm.total);

  // Verify against the golden model and the host result.
  std::vector<i32> device_c(m * n), host_c(m * n), want(m * n);
  soc.read_mem(pc, device_c.data(), device_c.size() * 4);
  soc.read_mem(qc, host_c.data(), host_c.size() * 4);
  kernels::golden::matmul_i8(a, bt, want, m, n, k);
  if (device_c != want) {
    std::printf("FAIL: device result mismatch\n");
    return 1;
  }
  if (host_c != want) {
    std::printf("FAIL: host result mismatch\n");
    return 1;
  }
  std::printf("verification: PMCA result == CVA6 result == golden model\n");

  if (!options.trace_path.empty()) {
    auto& sink = trace::sink();
    trace::write_chrome_trace_file(options.trace_path, sink);
    std::printf("trace: %zu events on %zu tracks -> %s "
                "(open in chrome://tracing or ui.perfetto.dev)\n",
                sink.events().size(), sink.track_names().size(),
                options.trace_path.c_str());
  }
  return 0;
}
