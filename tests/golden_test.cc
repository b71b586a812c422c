// Pinned simulated bytes: the contract every timing-invisible change
// keeps (ROADMAP aim 2).
//  * The stdout of the 7 figure benches at default flags, byte for byte
//    (tests/golden/bench/<bench>.txt), one ctest case per bench.
//  * HulkVSoc::state_digest() after the cold and after the warm offload
//    of the six Fig. 6 device kernels at the figure's sizes
//    (tests/golden/offload_digests.txt), and of matmul-i8 and
//    conv3x3-i8 dispatched to teams of 1, 3 and 5 cores, whose outputs
//    are also checked against the golden models
//    (tests/golden/offload_team_digests.txt).
//  * state_digest() of host runs: three bounded mid-block checkpoints
//    and the exit of a store/load/mul loop, and the warm and timed runs
//    of the five Fig. 8 IoT programs on the shipped SoC
//    (tests/golden/host_digests.txt).
//  * The ResultRows of one no-cache suite per memory configuration run
//    through serve::Service::run_point: warm fork plus chunked host runs
//    (tests/golden/serve_rows.txt).
//  * The observed runs: the folded stacks of fig6_speedup --profile and
//    fig8_llc_effect --profile and the FNV-1a digests of their annotated
//    views (tests/golden/profile/), and the digest of fig6_speedup's
//    --trace file (tests/golden/trace/).
//  * EXPERIMENTS.md's measured blocks equal the bench goldens.
// All are regenerated with HULKV_REGEN_GOLDEN=1; a change that does so
// must say which simulated number moved and why.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/half.hpp"
#include "common/rng.hpp"
#include "core/soc.hpp"
#include "isa/assembler.hpp"
#include "kernels/cluster_kernels.hpp"
#include "kernels/golden.hpp"
#include "kernels/iot_benchmarks.hpp"
#include "kernels/kernel.hpp"
#include "runtime/offload.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "snapshot/archive.hpp"

namespace hulkv {
namespace {

// Injected by tests/CMakeLists.txt.
#ifndef HULKV_BENCH_DIR
#define HULKV_BENCH_DIR "."
#endif
#ifndef HULKV_TEST_DATA_DIR
#define HULKV_TEST_DATA_DIR "."
#endif
#ifndef HULKV_DOCS_DIR
#define HULKV_DOCS_DIR ".."
#endif

bool regenerating() { return std::getenv("HULKV_REGEN_GOLDEN") != nullptr; }

std::string golden_path(const std::string& name) {
  return std::string(HULKV_TEST_DATA_DIR) + "/golden/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
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

/// EXPERIMENTS.md shows each bench's output as the code block after a
/// `<!-- golden: tests/golden/bench/<bench>.txt -->` marker; the block
/// must be the golden, byte for byte.
class GoldenExperiments : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenExperiments, BlockMatchesGolden) {
  const std::string golden = "bench/" + std::string(GetParam()) + ".txt";
  const std::string text =
      read_file(std::string(HULKV_DOCS_DIR) + "/EXPERIMENTS.md");
  const std::string marker =
      "<!-- golden: tests/golden/" + golden + " -->\n```\n";
  const size_t start = text.find(marker);
  ASSERT_NE(start, std::string::npos) << "EXPERIMENTS.md has no " << marker;
  const size_t begin = start + marker.size();
  const size_t end = text.find("```", begin);
  ASSERT_NE(end, std::string::npos) << "unterminated block for " << golden;
  EXPECT_EQ(text.substr(begin, end - begin), read_file(golden_path(golden)))
      << "EXPERIMENTS.md's block for " << golden
      << " differs from the golden; paste the golden into the block";
}

const auto kFigureBenches = ::testing::Values(
    "fig6_speedup", "fig7_llc_sweep", "fig8_llc_effect", "fig9_energy_eff",
    "table1_comparison", "table2_power", "ablation_memsys");

std::string bench_name(const ::testing::TestParamInfo<const char*>& bench) {
  return bench.param;
}

INSTANTIATE_TEST_SUITE_P(FigureBenches, GoldenBench, kFigureBenches,
                         bench_name);
INSTANTIATE_TEST_SUITE_P(FigureBenches, GoldenExperiments, kFigureBenches,
                         bench_name);

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

/// The store/load/mul loop whose bounded runs land mid-block.
std::vector<u32> checkpoint_program() {
  using namespace isa::reg;
  isa::Assembler a(core::layout::kHostCodeBase, /*rv64=*/true);
  a.li(t0, 2000);
  a.li(t1, 0);
  a.li(t2, core::layout::kSharedBase);
  a.label("loop");
  a.sd(t1, 0, t2);    // store through the write-through L1D
  a.ld(t3, 0, t2);    // load back (D-cache hit path)
  a.mul(t4, t1, t0);  // multiplier latency
  a.addi(t1, t1, 1);
  a.addi(t0, t0, -1);
  a.bnez(t0, "loop");
  a.mv(a0, t1);
  a.li(a7, 93);
  a.ecall();
  return a.assemble();
}

host::Cva6Core::SyscallAction exit_on_93(host::Cva6Core& c) {
  return c.reg(isa::reg::a7) == 93 ? host::Cva6Core::SyscallAction::kExit
                                   : host::Cva6Core::SyscallAction::kContinue;
}

/// Called after each offload with the SoC and the buffers' L2 addresses.
using OffloadCheck =
    std::function<void(core::HulkVSoc&, const std::vector<u32>&)>;

/// Stage `c` on the shipped SoC (HyperRAM + LLC), offload it cold and
/// then warm to `team` cores (0: the whole cluster), and append
/// "<prefix> cold|warm <state_digest()>" to `lines`.
void append_cold_and_warm_digests(OffloadCase& c, u32 team,
                                  const std::string& prefix,
                                  std::string& lines,
                                  const OffloadCheck& check = nullptr) {
  core::HulkVSoc soc;
  runtime::OffloadRuntime rt(&soc);
  Xoshiro256 rng(12345);
  std::vector<u32> l2;
  for (const Buffer& b : c.buffers) l2.push_back(stage(soc, rt, rng, b));
  const std::vector<u32> args = c.args(l2);
  const auto handle =
      rt.register_kernel(c.label, c.device.words, c.device.symbols);
  for (const char* run : {"cold", "warm"}) {
    rt.offload(handle, args, team);  // cold: includes the lazy code load
    if (check) check(soc, l2);
    lines += prefix + " " + run + " " + hex_digest(soc.state_digest()) + "\n";
  }
}

TEST(GoldenOffload, DigestsAfterColdAndWarmOffload) {
  std::string lines;
  for (OffloadCase& c : fig6_device_cases()) {
    append_cold_and_warm_digests(c, 0, c.label, lines);
  }
  expect_golden("offload_digests.txt", lines);
}

/// The staged L2 buffer `p` read back as `count` values of T.
template <typename T>
std::vector<T> read_buffer(core::HulkVSoc& soc, u32 p, size_t count) {
  std::vector<T> out(count);
  soc.read_mem(p, out.data(), count * sizeof(T));
  return out;
}

/// The L2 output of a matmul-i8 or conv3x3-i8 case equals the golden
/// model on the staged inputs.
void expect_output_matches_golden(core::HulkVSoc& soc, const std::string& label,
                                  const std::vector<u32>& l2) {
  std::vector<i32> want;
  if (label == "matmul-i8") {
    const u32 m = 96, n = 96, k = 96;
    want.resize(m * n);
    kernels::golden::matmul_i8(read_buffer<i8>(soc, l2[0], m * k),
                               read_buffer<i8>(soc, l2[1], n * k), want, m,
                               n, k);
  } else {
    ASSERT_EQ(label, "conv3x3-i8");
    const u32 h = 64, w = 64;
    want.resize((h - 2) * (w - 2));
    kernels::golden::conv3x3_i8(read_buffer<i8>(soc, l2[0], h * w),
                                read_buffer<i8>(soc, l2[1], 9), want, h, w);
  }
  EXPECT_EQ(read_buffer<i32>(soc, l2[2], want.size()), want) << label;
}

TEST(GoldenOffload, PartialTeamDigestsAndOutputs) {
  // Both kernels split rows by hart id, so teams of 1, 3 and 5 cores
  // leave cores idle, finish some cores early and wake partial teams
  // at every barrier (tests/golden/offload_team_digests.txt).
  std::string lines;
  for (const u32 team : {1u, 3u, 5u}) {
    for (OffloadCase& c : fig6_device_cases()) {
      const std::string label = c.label;
      if (label != "matmul-i8" && label != "conv3x3-i8") continue;
      append_cold_and_warm_digests(
          c, team, label + " team" + std::to_string(team), lines,
          [&](core::HulkVSoc& soc, const std::vector<u32>& l2) {
            expect_output_matches_golden(soc, label, l2);
          });
    }
  }
  expect_golden("offload_team_digests.txt", lines);
}

// ---------------------------------------------------------------------
// Host digests
// ---------------------------------------------------------------------

TEST(GoldenHost, DigestsAtCheckpointsAndAfterIotPrograms) {
  std::string lines;
  {
    // Three bounded runs cut blocks mid-way; the last one runs to exit.
    core::SocConfig cfg;
    cfg.main_memory = core::MainMemoryKind::kDdr4;
    core::HulkVSoc soc(cfg);
    soc.load_program(core::layout::kHostCodeBase, checkpoint_program());
    soc.host().set_syscall_handler(exit_on_93);
    soc.host().set_pc(core::layout::kHostCodeBase);
    for (int i = 0; i < 3; ++i) {
      soc.host().run(/*max_instructions=*/1501);
      lines += "checkpoint " + std::to_string(i) + " " +
               hex_digest(soc.state_digest()) + "\n";
    }
    soc.host().run();
    lines += "checkpoint exit " + hex_digest(soc.state_digest()) + "\n";
  }
  // The five Fig. 8 IoT programs at the bench's sizes and seeds.
  for (const kernels::IotBenchmark& b : kernels::iot_benchmarks()) {
    core::HulkVSoc soc;  // the shipped SoC: HyperRAM + LLC
    const kernels::IotSetup setup = b.setup(soc, /*scale=*/1);
    const std::string name = b.name;
    kernels::run_host_program(soc, setup.program, setup.args);
    lines += name + " warm " + hex_digest(soc.state_digest()) + "\n";
    kernels::run_host_program(soc, setup.program, setup.args);
    lines += name + " timed " + hex_digest(soc.state_digest()) + "\n";
  }
  expect_golden("host_digests.txt", lines);
}

// ---------------------------------------------------------------------
// Serve rows
// ---------------------------------------------------------------------

TEST(GoldenServe, NoCacheSuiteRowsPerMemoryConfig) {
  serve::Service service;
  std::string lines;
  for (u8 mem = 0; mem < 3; ++mem) {
    for (u8 llc = 0; llc < 2; ++llc) {
      serve::Request suite;
      suite.type = serve::MsgType::kSuite;
      suite.flags = serve::kFlagNoCache;
      suite.point = {0, mem, llc};
      for (const serve::PointParams& point : serve::expand_points(suite)) {
        const serve::Service::PointResult result =
            service.run_point(point, /*no_cache=*/true, nullptr);
        ASSERT_EQ(result.status, serve::Status::kOk);
        const serve::ResultRow& row = result.row;
        lines += std::string(serve::workload_name(row.workload)) +
                 " mem=" + std::to_string(row.mem_kind) +
                 " llc=" + std::to_string(row.llc) +
                 " cycles=" + std::to_string(row.cycles) +
                 " instret=" + std::to_string(row.instret) +
                 " exit=" + std::to_string(row.exit_code) + "\n";
      }
    }
  }
  expect_golden("serve_rows.txt", lines);
}

// ---------------------------------------------------------------------
// Observed runs: --profile and --trace
// ---------------------------------------------------------------------

/// A scratch directory removed (with its files) at scope exit.
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/hulkv_golden.XXXXXX";
    path = mkdtemp(tmpl) != nullptr ? tmpl : "";
  }
  ~TempDir() {
    if (!path.empty()) std::filesystem::remove_all(path);
  }
  std::string path;
};

/// Size and FNV-1a digest of a file's bytes, one line.
std::string size_and_digest(const std::string& bytes) {
  return std::to_string(bytes.size()) + " bytes fnv1a " +
         hex_digest(snapshot::fnv1a(snapshot::kFnvOffset, bytes.data(),
                                    bytes.size())) +
         "\n";
}

// fig6 pins the cluster side and CVA6 on HyperRAM+LLC; fig8 pins the
// host's cycle attribution on all four memory configs.
TEST(GoldenObserved, Fig6ProfileFoldedAndAnnotated) {
  const TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  for (const std::string bench : {"fig6_speedup", "fig8_llc_effect"}) {
    const std::string out = dir.path + "/" + bench;
    run_stdout(std::string(HULKV_BENCH_DIR) + "/" + bench + " --profile=" +
               out);
    expect_golden("profile/" + bench + ".folded", read_file(out + ".folded"));
    expect_golden("profile/" + bench + ".annotated.fnv1a",
                  size_and_digest(read_file(out + ".annotated.txt")));
  }
}

TEST(GoldenObserved, Fig6TraceDigest) {
  const TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  const std::string trace = dir.path + "/fig6.json";
  run_stdout(std::string(HULKV_BENCH_DIR) + "/fig6_speedup --trace=" + trace);
  expect_golden("trace/fig6_speedup.json.fnv1a",
                size_and_digest(read_file(trace)));
}

}  // namespace
}  // namespace hulkv
