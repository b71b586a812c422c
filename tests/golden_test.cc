// Pinned simulated bytes: the contract every timing-invisible change
// keeps (ROADMAP aim 2).
//  * The stdout of the 7 figure benches at default flags, byte for byte
//    (tests/golden/bench/<bench>.txt), one ctest case per bench.
//  * HulkVSoc::state_digest() after the cold and after the warm offload
//    of the six Fig. 6 device kernels at the figure's sizes
//    (tests/golden/offload_digests.txt).
// Both are regenerated with HULKV_REGEN_GOLDEN=1; a change that does so
// must say which simulated number moved and why.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/half.hpp"
#include "common/rng.hpp"
#include "core/soc.hpp"
#include "kernels/cluster_kernels.hpp"
#include "runtime/offload.hpp"

namespace hulkv {
namespace {

// Injected by tests/CMakeLists.txt.
#ifndef HULKV_BENCH_DIR
#define HULKV_BENCH_DIR "."
#endif
#ifndef HULKV_TEST_DATA_DIR
#define HULKV_TEST_DATA_DIR "."
#endif

bool regenerating() { return std::getenv("HULKV_REGEN_GOLDEN") != nullptr; }

std::string golden_path(const std::string& name) {
  return std::string(HULKV_TEST_DATA_DIR) + "/golden/" + name;
}

/// Compare `actual` with the golden file `name`, or rewrite the file
/// when regenerating.
void expect_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (regenerating()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(actual, golden.str())
      << name << " drifted; regenerate with HULKV_REGEN_GOLDEN=1 only if "
                 "a simulated number is meant to move";
}

// ---------------------------------------------------------------------
// Figure benches
// ---------------------------------------------------------------------

/// Run `cmd`, discard stderr (logs go there), return stdout.
std::string run_stdout(const std::string& cmd) {
  const std::string full = cmd + " 2>/dev/null";
  FILE* pipe = popen(full.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << full;
  if (pipe == nullptr) return "";
  std::string out;
  char buf[4096];
  size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  EXPECT_EQ(pclose(pipe), 0) << full;
  return out;
}

class GoldenBench : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenBench, StdoutMatches) {
  // Default flags, so also the default --jobs: sweep benches run on
  // every hardware thread and must still print the pinned bytes.
  const std::string bench = GetParam();
  const std::string out = run_stdout(std::string(HULKV_BENCH_DIR) + "/" +
                                     bench);
  ASSERT_FALSE(out.empty());
  expect_golden("bench/" + bench + ".txt", out);
}

INSTANTIATE_TEST_SUITE_P(
    FigureBenches, GoldenBench,
    ::testing::Values("fig6_speedup", "fig7_llc_sweep", "fig8_llc_effect",
                      "fig9_energy_eff", "table1_comparison", "table2_power",
                      "ablation_memsys"),
    [](const ::testing::TestParamInfo<const char*>& bench) {
      return std::string(bench.param);
    });

// ---------------------------------------------------------------------
// Offload digests
// ---------------------------------------------------------------------

constexpr u32 kTcdm = static_cast<u32>(mem::map::kTcdmBase);
constexpr u32 kL1 = kTcdm + 0x100;  // first staged TCDM buffer

/// An L2 input or output buffer of the kernel.
struct Buffer {
  enum class Fill : u8 { kBytes, kHalves, kZero };
  u64 bytes = 0;
  Fill fill = Fill::kZero;
};

struct OffloadCase {
  const char* label;
  kernels::KernelProgram device;
  std::vector<Buffer> buffers;
  /// Kernel arguments given the buffers' L2 addresses.
  std::function<std::vector<u32>(const std::vector<u32>&)> args;
};

using Fill = Buffer::Fill;

/// The six device kernels of Fig. 6 at the figure's sizes, with the
/// figure's TCDM layout.
std::vector<OffloadCase> fig6_device_cases() {
  std::vector<OffloadCase> cases;
  {
    const u32 m = 96, n = 96, k = 96;
    cases.push_back({"matmul-i8", kernels::cluster_matmul_i8(m, n, k),
                     {{m * k, Fill::kBytes}, {n * k, Fill::kBytes},
                      {m * n * 4, Fill::kZero}},
                     [=](const std::vector<u32>& p) {
                       return std::vector<u32>{p[0], p[1], p[2], kL1,
                                               kL1 + m * k,
                                               kL1 + m * k + n * k};
                     }});
  }
  {
    const u32 h = 64, w = 64;
    cases.push_back({"conv3x3-i8", kernels::cluster_conv3x3_i8(h, w),
                     {{h * w, Fill::kBytes}, {12, Fill::kBytes},
                      {(h - 2) * (w - 2) * 4, Fill::kZero}},
                     [=](const std::vector<u32>& p) {
                       return std::vector<u32>{p[0], p[1], p[2], kL1,
                                               kL1 + h * w,
                                               kL1 + h * w + 16};
                     }});
  }
  {
    const u32 n = 4096, taps = 32;
    cases.push_back({"fir-i8", kernels::cluster_fir_i8(n, taps),
                     {{n, Fill::kBytes}, {taps, Fill::kBytes},
                      {n * 4, Fill::kZero}},
                     [=](const std::vector<u32>& p) {
                       return std::vector<u32>{p[0], p[1], p[2], kL1,
                                               kL1 + n, kL1 + n + 64};
                     }});
  }
  {
    const u32 m = 48, n = 48, k = 48;
    cases.push_back({"matmul-f16", kernels::cluster_matmul_f16(m, n, k),
                     {{m * k * 2, Fill::kHalves}, {n * k * 2, Fill::kHalves},
                      {m * n * 4, Fill::kZero}},
                     [=](const std::vector<u32>& p) {
                       return std::vector<u32>{p[0], p[1], p[2], kL1,
                                               kL1 + m * k * 2,
                                               kL1 + (m + n) * k * 2};
                     }});
  }
  {
    const u32 n = 16384;
    const u16 alpha = float_to_half_bits(0.75f);
    cases.push_back({"axpy-f16", kernels::cluster_axpy_f16(n),
                     {{n * 2, Fill::kHalves}, {n * 2, Fill::kHalves}},
                     [=](const std::vector<u32>& p) {
                       return std::vector<u32>{
                           p[0], p[1], alpha | (u32{alpha} << 16), kL1,
                           kL1 + n * 2};
                     }});
  }
  {
    const u32 n = 16384;
    cases.push_back({"dotp-f16", kernels::cluster_dotp_f16(n),
                     {{n * 2, Fill::kHalves}, {n * 2, Fill::kHalves}},
                     [=](const std::vector<u32>& p) {
                       return std::vector<u32>{p[0], p[1], kL1, kL1 + n * 2,
                                               kL1 + n * 4,
                                               kL1 + n * 4 + 64};
                     }});
  }
  return cases;
}

/// Stage a buffer in L2: random bytes, or fp16 values in [-4, 4) so the
/// kernels compute on finite numbers.
u32 stage(core::HulkVSoc& soc, runtime::OffloadRuntime& rt,
          Xoshiro256& rng, const Buffer& buffer) {
  const Addr p = rt.l2_arena().alloc(buffer.bytes, 64);
  std::vector<u8> data(buffer.bytes, 0);
  for (size_t i = 0; i < data.size(); ++i) {
    if (buffer.fill == Fill::kBytes) {
      data[i] = static_cast<u8>(rng.next());
    } else if (buffer.fill == Fill::kHalves && i % 2 == 0) {
      const u16 h = float_to_half_bits(
          static_cast<float>(rng.next_range(-64, 64)) / 16.0f);
      data[i] = static_cast<u8>(h);
      data[i + 1] = static_cast<u8>(h >> 8);
    }
  }
  soc.write_mem(p, data.data(), data.size());
  return static_cast<u32>(p);
}

std::string hex_digest(u64 digest) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

TEST(GoldenOffload, DigestsAfterColdAndWarmOffload) {
  std::string lines;
  for (OffloadCase& c : fig6_device_cases()) {
    core::HulkVSoc soc;  // the shipped SoC: HyperRAM + LLC
    runtime::OffloadRuntime rt(&soc);
    Xoshiro256 rng(12345);
    std::vector<u32> l2;
    for (const Buffer& b : c.buffers) l2.push_back(stage(soc, rt, rng, b));
    const std::vector<u32> args = c.args(l2);
    const auto handle =
        rt.register_kernel(c.label, c.device.words, c.device.symbols);
    rt.offload(handle, args);  // cold: includes the lazy code load
    lines += std::string(c.label) + " cold " +
             hex_digest(soc.state_digest()) + "\n";
    rt.offload(handle, args);
    lines += std::string(c.label) + " warm " +
             hex_digest(soc.state_digest()) + "\n";
  }
  expect_golden("offload_digests.txt", lines);
}

}  // namespace
}  // namespace hulkv
