// Cross-run determinism regression tests.
//
// The simulator must be a pure function of its inputs: two runs of the
// same workload — in one process, across processes, or across worker
// counts — produce identical cycle counts, digests and bench output.
// This pins down the cross-run state-bleed class of bug (a static or
// global that survives into the next Soc).
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/soc.hpp"
#include "isa/assembler.hpp"
#include "kernels/iot_benchmarks.hpp"

namespace {

using namespace hulkv;

// Bench/example binary locations, injected by tests/CMakeLists.txt.
#ifndef HULKV_BENCH_DIR
#define HULKV_BENCH_DIR "."
#endif
#ifndef HULKV_EXAMPLES_DIR
#define HULKV_EXAMPLES_DIR "."
#endif
#ifndef HULKV_TEST_DATA_DIR
#define HULKV_TEST_DATA_DIR "."
#endif

/// Run a command, discard stderr (logs go there), return stdout.
std::string run_stdout(const std::string& cmd) {
  const std::string full = cmd + " 2>/dev/null";
  FILE* pipe = popen(full.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << full;
  if (pipe == nullptr) return "";
  std::string out;
  char buf[4096];
  size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    out.append(buf, n);
  }
  const int rc = pclose(pipe);
  EXPECT_EQ(rc, 0) << full;
  return out;
}

std::string hex_digest(u64 digest) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

struct RunResult {
  Cycles cycles;
  u64 digest;
};

RunResult run_workload() {
  core::SocConfig cfg;
  core::HulkVSoc soc(cfg);
  const auto prog = kernels::host_stride_reads(256, 1024, 5);
  const Cycles cycles =
      kernels::run_host_program(
          soc, prog.words, std::array<u64, 1>{core::layout::kSharedBase})
          .cycles;
  return {cycles, soc.state_digest()};
}

TEST(Determinism, RepeatedInProcessRunsAreIdentical) {
  const RunResult first = run_workload();
  const RunResult second = run_workload();
  EXPECT_EQ(first.cycles, second.cycles);
  EXPECT_EQ(first.digest, second.digest);
}

TEST(Determinism, Fig7RunTwiceIsByteIdentical) {
  const std::string cmd = std::string(HULKV_BENCH_DIR) + "/fig7_llc_sweep";
  const std::string first = run_stdout(cmd);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, run_stdout(cmd));
}

TEST(Determinism, Fig7OutputIndependentOfWorkerCount) {
  const std::string cmd = std::string(HULKV_BENCH_DIR) + "/fig7_llc_sweep";
  const std::string serial = run_stdout(cmd + " --jobs 1");
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, run_stdout(cmd + " --jobs 4"));
}

TEST(Determinism, AblationMemsysRunTwiceIsByteIdentical) {
  const std::string cmd = std::string(HULKV_BENCH_DIR) + "/ablation_memsys";
  const std::string first = run_stdout(cmd);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, run_stdout(cmd));
}

TEST(Determinism, MemsysExplorerOutputIndependentOfWorkerCount) {
  const std::string cmd =
      std::string(HULKV_EXAMPLES_DIR) + "/memsys_explorer 128";
  const std::string serial = run_stdout(cmd + " --jobs 1");
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, run_stdout(cmd + " --jobs 4"));
}

TEST(Determinism, ThreadedTierDigestMatchesInterpAtCheckpoints) {
  // Every cycle-accounting side effect stays where the interpreter that
  // preceded the handlers put it, so the full serialized SoC state —
  // registers, clocks, caches, stats — equals the digests it produced
  // (pinned in tests/golden/host_digests.txt) at three mid-run
  // checkpoints (budget cuts land mid-block, exercising the loop's
  // pc/next_pc re-establishment) plus the final state.
  core::SocConfig cfg;
  cfg.main_memory = core::MainMemoryKind::kDdr4;
  core::HulkVSoc soc(cfg);
  using namespace isa::reg;
  isa::Assembler a(core::layout::kHostCodeBase, /*rv64=*/true);
  a.li(t0, 2000);
  a.li(t1, 0);
  a.li(t2, core::layout::kSharedBase);
  a.label("loop");
  a.sd(t1, 0, t2);       // store through the write-through L1D
  a.ld(t3, 0, t2);       // load back (D-cache hit path)
  a.mul(t4, t1, t0);     // multiplier latency
  a.addi(t1, t1, 1);
  a.addi(t0, t0, -1);
  a.bnez(t0, "loop");
  a.mv(a0, t1);
  a.li(a7, 93);
  a.ecall();
  soc.load_program(core::layout::kHostCodeBase, a.assemble());
  soc.host().set_syscall_handler(
      [](host::Cva6Core& c) -> host::Cva6Core::SyscallAction {
        return c.reg(17) == 93 ? host::Cva6Core::SyscallAction::kExit
                               : host::Cva6Core::SyscallAction::kContinue;
      });
  soc.host().set_pc(core::layout::kHostCodeBase);
  std::vector<std::string> digests;
  for (int i = 0; i < 3; ++i) {
    soc.host().run(/*max_instructions=*/1501);  // mid-block checkpoints
    digests.push_back("checkpoint " + std::to_string(i) + " " +
                      hex_digest(soc.state_digest()));
  }
  soc.host().run();
  digests.push_back("checkpoint exit " + hex_digest(soc.state_digest()));

  std::ifstream golden(std::string(HULKV_TEST_DATA_DIR) +
                       "/golden/host_digests.txt");
  ASSERT_TRUE(golden.good()) << "missing tests/golden/host_digests.txt";
  std::vector<std::string> pinned;
  for (std::string line; std::getline(golden, line);) {
    if (line.rfind("checkpoint ", 0) == 0) pinned.push_back(line);
  }
  EXPECT_EQ(digests, pinned);
}

TEST(Determinism, TierDoesNotPerturbBenchStdout) {
  // A traced run leaves figure-bench stdout byte-identical (the trace
  // goes to its file; its bytes are pinned by golden_test).
  char tmpl[] = "/tmp/hulkv_det_trace.XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string trace = std::string(tmpl) + "/fig6.json";
  const std::string cmd = std::string(HULKV_BENCH_DIR) + "/fig6_speedup";
  const std::string plain = run_stdout(cmd);
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(plain, run_stdout(cmd + " --trace=" + trace));
  std::remove(trace.c_str());
  rmdir(tmpl);
}

TEST(Determinism, TelemetryDoesNotPerturbBenchStdout) {
  // The telemetry layer's contract (DESIGN.md §14): spans, sweep stats
  // and the run manifest never touch stdout or simulated timing, so a
  // bench's stdout is byte-identical with telemetry on or off. The
  // manifest goes to a scratch dir (and must actually appear there).
  char tmpl[] = "/tmp/hulkv_det_telemetry.XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string cmd = std::string(HULKV_BENCH_DIR) + "/fig8_llc_effect";
  const std::string off = run_stdout(cmd);
  ASSERT_FALSE(off.empty());
  EXPECT_EQ(off, run_stdout(cmd + " --telemetry=" + dir));

  const std::string manifest = dir + "/fig8_llc_effect.jsonl";
  FILE* f = std::fopen(manifest.c_str(), "r");
  ASSERT_NE(f, nullptr) << "missing run manifest " << manifest;
  std::fclose(f);
  std::remove(manifest.c_str());
  rmdir(dir.c_str());
}

}  // namespace
