// Static-analyzer tests: one hand-built program per diagnostic class,
// the load-path integration (register_kernel / run_host_program
// rejection), the "whole corpus is clean" regression over every
// kernel and benchmark builder in the repo, and the whole-corpus golden
// JSON (tests/golden/analyze_corpus.json, regenerate with
// HULKV_REGEN_GOLDEN=1).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "analysis/analyzer.hpp"
#include "core/soc.hpp"
#include "isa/assembler.hpp"
#include "kernels/cluster_kernels.hpp"
#include "kernels/corpus.hpp"
#include "kernels/host_kernels.hpp"
#include "kernels/iot_benchmarks.hpp"
#include "kernels/kernel.hpp"
#include "runtime/offload.hpp"

#ifndef HULKV_TEST_DATA_DIR
#define HULKV_TEST_DATA_DIR "."
#endif

namespace hulkv::analysis {
namespace {

using isa::Assembler;
using isa::Op;
using namespace isa::reg;

/// Cluster-profile options with the default SoC IOPMP grants (L2, DRAM,
/// cluster peripherals), matching OffloadRuntime::register_kernel.
Options cluster_options() {
  static core::Iopmp iopmp = [] {
    core::Iopmp p;
    p.add_region({mem::map::kL2Base, mem::map::kL2Size});
    p.add_region({mem::map::kDramBase, mem::map::kDramSize});
    p.add_region(
        {mem::map::kClusterPeriphBase, mem::map::kClusterPeriphSize});
    return p;
  }();
  Options options;
  options.profile = IsaProfile::kClusterRv32;
  options.base = 0;
  options.pic = true;
  options.iopmp = &iopmp;
  return options;
}

Options host_options() {
  Options options;
  options.profile = IsaProfile::kHostRv64;
  options.base = core::layout::kHostCodeBase;
  options.pic = false;
  options.entry_defined = reg_mask({a0, a1, a2, a3, a4, a5, sp});
  return options;
}

/// li a7, kExit; ecall — the cluster kernel epilogue.
void cluster_exit(Assembler& a) {
  a.li(a7, cluster::envcall::kExit);
  a.ecall();
}

Report analyze_cluster(Assembler& a) {
  const std::vector<u32> words = a.assemble();
  return analyze(words, cluster_options());
}

// ---- clean programs ----

TEST(Analyzer, TrivialKernelIsClean) {
  Assembler a(0, false);
  a.li(t0, 42);
  a.sw(t0, 0, a0);
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.instructions, 4u);
  EXPECT_EQ(report.hw_loops, 0u);
}

TEST(Analyzer, HardwareLoopKernelIsClean) {
  Assembler a(0, false);
  a.li(t0, 16);
  a.li(t1, 0);
  a.lp_setup(0, t0, "done");
  a.addi(t1, t1, 1);
  a.label("done");
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.hw_loops, 1u);
}

TEST(Analyzer, BranchToLoopEndFromOutsideIsAllowed) {
  // The relu-kernel shape: a guard before lp.setup skips the loop by
  // jumping to its end label. That is not a branch *into* the body.
  Assembler a(0, false);
  a.lw(t2, 0, a0);
  a.beqz(t2, "done");
  a.li(t1, 0);
  a.lp_setup(0, t2, "done");
  a.addi(t1, t1, 1);
  a.label("done");
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_FALSE(report.has(Diag::kHwLoopBranchIntoBody));
}

// ---- structural diagnostics ----

TEST(Analyzer, IllegalWordIsRejected) {
  const std::vector<u32> words = {0x00000000u};
  const Report report = analyze(words, cluster_options());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Diag::kIllegalInstruction)) << report.to_string();
}

TEST(Analyzer, WrongIsaOpIsRejected) {
  Assembler a(0, false);
  a.ld(t0, 0, a0);  // RV64 load in a cluster image
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Diag::kWrongIsa)) << report.to_string();
}

TEST(Analyzer, XpulpOnHostIsRejected) {
  Assembler a(core::layout::kHostCodeBase, true);
  a.li(t0, 1);
  a.rr(Op::kPMin, t1, t0, t0);
  a.li(a7, 93);
  a.ecall();
  const Report report = analyze(a.assemble(), host_options());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Diag::kWrongIsa)) << report.to_string();
}

TEST(Analyzer, BranchOutOfImageIsRejected) {
  Assembler a(0, false);
  a.emit({.op = Op::kBeq, .rs1 = 0, .rs2 = 0, .imm = 0x400});
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Diag::kBranchOutOfImage)) << report.to_string();
}

TEST(Analyzer, MisalignedBranchTargetIsRejected) {
  Assembler a(0, false);
  a.emit({.op = Op::kJal, .rd = 0, .imm = 6});
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Diag::kMisalignedTarget)) << report.to_string();
}

TEST(Analyzer, FallThroughOffImageIsRejected) {
  Assembler a(0, false);
  a.li(t0, 1);
  a.add(t1, t0, t0);  // no exit: execution runs off the end
  const Report report = analyze_cluster(a);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Diag::kFallThroughEnd)) << report.to_string();
}

TEST(Analyzer, TrailingEcallWithUnknownA7IsNotAHardFallThrough) {
  // The exit ecall is a branch target, so the backscan cannot resolve
  // its a7 — but both paths set a7 = kExit, so the program is valid.
  // It degrades to a maybe-fall-through-end warning, not a rejection.
  Assembler a(0, false);
  a.li(a7, cluster::envcall::kExit);
  a.beqz(a0, "exit");
  a.li(a7, cluster::envcall::kExit);
  a.label("exit");
  a.ecall();
  const Report report = analyze_cluster(a);
  EXPECT_TRUE(report.has(Diag::kMaybeFallThroughEnd)) << report.to_string();
  EXPECT_FALSE(report.has(Diag::kFallThroughEnd)) << report.to_string();
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Analyzer, UnreachableBlockIsReported) {
  Assembler a(0, false);
  a.j("exit");
  a.li(t0, 7);  // skipped by the jump, never targeted
  a.label("exit");
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_TRUE(report.has(Diag::kUnreachableBlock)) << report.to_string();
  EXPECT_TRUE(report.ok());  // warning under the standard policy

  Options strict = cluster_options();
  strict.policy = Policy::strict();
  const Report rejected = analyze(a.assemble(), strict);
  EXPECT_FALSE(rejected.ok());
}

TEST(Analyzer, Dma2dEcallArgumentsAreModelled) {
  // dma2d reads the widest envcall argument set: a0..a4 plus a7 (six
  // register uses). With every argument defined the program is clean.
  Assembler a(0, false);
  a.li(a1, mem::map::kL2Base);  // src (a0 = dst is defined at entry)
  a.li(a2, 16);                 // row bytes
  a.li(a3, 4);                  // rows
  a.li(a4, 64);                 // dst stride
  a.li(a7, cluster::envcall::kDma2d);
  a.ecall();
  a.li(a7, cluster::envcall::kDmaWait);
  a.ecall();
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(Analyzer, Dma2dEcallWithUndefinedArgumentIsUseBeforeDef) {
  Assembler a(0, false);
  a.li(a1, mem::map::kL2Base);
  a.li(a3, 4);
  a.li(a4, 64);  // a2 (row bytes) never defined
  a.li(a7, cluster::envcall::kDma2d);
  a.ecall();
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_TRUE(report.has(Diag::kUseBeforeDef)) << report.to_string();
}

TEST(Analyzer, UnknownEnvcallIsRejected) {
  Assembler a(0, false);
  a.li(a7, 99);
  a.ecall();
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Diag::kUnknownEnvcall)) << report.to_string();
}

// ---- hardware-loop legality ----

TEST(Analyzer, BranchIntoHwLoopBodyIsRejected) {
  Assembler a(0, false);
  a.li(t0, 4);
  a.beqz(a0, "inside");  // jumps into the body, bypassing lp.setup
  a.lp_setup(0, t0, "after");
  a.addi(t1, t0, 0);
  a.label("inside");
  a.addi(t1, t1, 1);
  a.label("after");
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Diag::kHwLoopBranchIntoBody)) << report.to_string();
}

TEST(Analyzer, BranchOutOfHwLoopBodyIsRejected) {
  Assembler a(0, false);
  a.li(t0, 4);
  a.li(t1, 0);
  a.lp_setup(0, t0, "after");
  a.addi(t1, t1, 1);
  a.bnez(t1, "escape");  // leaves the body, skipping the loop counter
  a.label("after");
  a.addi(t2, t1, 0);
  a.label("escape");
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Diag::kHwLoopBranchOutOfBody)) << report.to_string();
}

TEST(Analyzer, EmptyHwLoopBodyIsRejected) {
  Assembler a(0, false);
  a.li(t0, 4);
  a.lp_setup(0, t0, "end");
  a.label("end");
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Diag::kHwLoopEmptyBody)) << report.to_string();
}

TEST(Analyzer, SameIndexNestedHwLoopsAreRejected) {
  Assembler a(0, false);
  a.li(t0, 4);
  a.lp_setup(0, t0, "outer_end");
  a.lp_setup(0, t0, "inner_end");  // index 0 again: clobbers the outer
  a.addi(t1, t0, 0);
  a.label("inner_end");
  a.addi(t2, t0, 0);
  a.label("outer_end");
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Diag::kHwLoopBadNesting)) << report.to_string();
}

TEST(Analyzer, ProperlyNestedTwoLevelLoopsAreClean) {
  Assembler a(0, false);
  a.li(t0, 4);
  a.li(t1, 0);
  a.lp_setup(1, t0, "outer_end");
  a.lp_setup(0, t0, "inner_end");
  a.addi(t1, t1, 1);
  a.label("inner_end");
  a.addi(t1, t1, 2);
  a.label("outer_end");
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.hw_loops, 2u);
}

TEST(Analyzer, EcallInHwLoopBodyIgnoresPreLoopA7) {
  // a7 holds kExit before the loop, but the body redefines it after the
  // ecall, so on iterations >= 2 the ecall is a barrier, not an exit.
  // The loop's back edge makes the body start a join point: the
  // pre-loop constant must not classify the ecall as a terminator
  // (which would sever the body and leave the epilogue unreachable).
  Assembler a(0, false);
  a.li(t0, 4);
  a.li(a7, cluster::envcall::kExit);
  a.lp_setup(0, t0, "end");
  a.ecall();
  a.li(a7, cluster::envcall::kBarrier);
  a.label("end");
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_FALSE(report.has(Diag::kUnreachableBlock)) << report.to_string();
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(Analyzer, HwLoopCountUndefinedIsRejected) {
  Assembler a(0, false);
  a.lp_setup(0, t3, "end");  // t3 never written on any path
  a.addi(t1, 0, 1);
  a.label("end");
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Diag::kHwLoopCountUndefined)) << report.to_string();
}

TEST(Analyzer, HwLoopZeroCountIsRejected) {
  Assembler a(0, false);
  a.li(t0, 0);
  a.lp_setup(0, t0, "end");
  a.addi(t1, 0, 1);
  a.label("end");
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Diag::kHwLoopBadCount)) << report.to_string();
}

// ---- register dataflow ----

TEST(Analyzer, UseBeforeDefIsReportedAndStrictPolicyRejects) {
  Assembler a(0, false);
  a.add(t1, t2, t3);  // t2/t3 undefined at entry
  a.sw(t1, 0, a0);
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_TRUE(report.has(Diag::kUseBeforeDef)) << report.to_string();
  EXPECT_TRUE(report.ok());  // warning under the standard policy

  Options strict = cluster_options();
  strict.policy = Policy::strict();
  const Report rejected = analyze(a.assemble(), strict);
  EXPECT_FALSE(rejected.ok());
}

TEST(Analyzer, DefinedOnOnlyOnePathIsUseBeforeDef) {
  Assembler a(0, false);
  a.beqz(a0, "skip");
  a.li(t0, 5);  // defined only when a0 != 0
  a.label("skip");
  a.sw(t0, 0, a0);
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_TRUE(report.has(Diag::kUseBeforeDef)) << report.to_string();
}

TEST(Analyzer, CallDefinesEverythingOnReturnPath) {
  // After a call the callee may have written any register: no
  // use-before-def for values produced by the callee.
  Assembler a(core::layout::kHostCodeBase, true);
  a.call("fn");
  a.add(t1, t5, t6);  // t5/t6 written by fn
  a.li(a7, 93);
  a.ecall();
  a.label("fn");
  a.li(t5, 1);
  a.li(t6, 2);
  a.ret();
  const Report report = analyze(a.assemble(), host_options());
  EXPECT_FALSE(report.has(Diag::kUseBeforeDef)) << report.to_string();
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Analyzer, DeadWriteIsReported) {
  Assembler a(0, false);
  a.li(t0, 1);
  a.li(t0, 2);  // first write never read
  a.sw(t0, 0, a0);
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_TRUE(report.has(Diag::kDeadWrite)) << report.to_string();
  EXPECT_TRUE(report.ok());  // note under the standard policy
}

// ---- statically-known memory accesses ----

TEST(Analyzer, IopmpDeniedStaticStoreIsRejected) {
  Assembler a(0, false);
  a.li(t0, mem::map::kBootRomBase);  // no grant window covers the ROM
  a.sw(0, 0, t0);
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Diag::kIopmpDenied)) << report.to_string();
}

TEST(Analyzer, GrantedStaticAccessesAreClean) {
  Assembler a(0, false);
  a.li(t0, mem::map::kTcdmBase + 0x400);  // TCDM bypasses the IOPMP
  a.sw(0, 0, t0);
  a.li(t1, mem::map::kL2Base + 64);  // granted window
  a.lw(t2, 0, t1);
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_FALSE(report.has(Diag::kIopmpDenied)) << report.to_string();
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Analyzer, MisalignedStaticAccessIsRejected) {
  Assembler a(0, false);
  a.li(t0, mem::map::kTcdmBase + 2);
  a.lw(t1, 0, t0);  // 4-byte load at a 2-byte-aligned address
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Diag::kMisalignedAccess)) << report.to_string();
}

TEST(Analyzer, UnmappedStaticAddressIsRejected) {
  Assembler a(0, false);
  a.li(t0, 0x4000'0000);  // hole between L2 and DRAM
  a.sw(0, 0, t0);
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Diag::kUnmappedAddress)) << report.to_string();
}

TEST(Analyzer, PicImageDoesNotFoldAuipcAddresses) {
  // auipc-derived values depend on the unknown load address of a
  // position-independent image and must not produce address findings.
  Assembler a(0, false);
  a.emit({.op = Op::kAuipc, .rd = t0, .imm = 0});
  a.lw(t1, 2, t0);  // would be "misaligned at 0x2" if auipc were folded
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_FALSE(report.has(Diag::kMisalignedAccess)) << report.to_string();
}

// ---- interval-domain address reasoning (DESIGN.md §13) ----

TEST(Analyzer, NonPicHostFoldsAuipcAddresses) {
  // Host images are loaded at a known base (pic=false), so
  // auipc-derived addresses fold through the interval domain and get
  // the same verdicts li-materialised ones would. This used to drop to
  // "unknown" — the old pic asymmetry silently skipped every
  // pc-relative address on the host.
  Assembler a(core::layout::kHostCodeBase, true);
  // kHostCodeBase - 0x4010'0000 = 0x4000'0000: the hole between L2
  // and DRAM (U-type immediates carry the already-shifted value).
  a.emit({.op = Op::kAuipc, .rd = t0, .imm = -0x4010'0000});
  a.ld(t1, 0, t0);
  a.li(a7, 93);
  a.ecall();
  const std::vector<u32> words = a.assemble();
  const Report report = analyze(words, host_options());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Diag::kUnmappedAddress)) << report.to_string();

  // The same image analyzed as position-independent must stay silent:
  // the load address (and thus the auipc result) is unknown.
  Options pic = host_options();
  pic.pic = true;
  EXPECT_FALSE(analyze(words, pic).has(Diag::kUnmappedAddress));
}

TEST(Analyzer, BoundedIndexProvesWholeRangeUnmapped) {
  // A bounded-but-unknown index (andi masks it to [0, 0xFF]) added to
  // a constant base in the L2/DRAM hole: every address in the derived
  // interval is unmapped, so the range-level proof must fire. The old
  // constant-only analyzer could not see through the andi.
  Assembler a(0, false);
  a.li(t0, 0x4000'0000);
  a.andi(t1, a0, 0xFF);
  a.add(t0, t0, t1);
  a.lw(t2, 0, t0);
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Diag::kUnmappedAddress)) << report.to_string();
}

TEST(Analyzer, BoundedIndexInsideRegionStaysClean) {
  // Same shape, but the whole interval lands inside L2: a range that
  // merely *might* be fine must not produce findings.
  Assembler a(0, false);
  a.li(t0, mem::map::kL2Base);
  a.andi(t1, a0, 0xFF);
  a.slli(t1, t1, 2);
  a.add(t0, t0, t1);
  a.lw(t2, 0, t0);
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_FALSE(report.has(Diag::kUnmappedAddress)) << report.to_string();
  EXPECT_FALSE(report.has(Diag::kIopmpDenied)) << report.to_string();
}

TEST(Analyzer, JoinedConstantServiceIdIsStillProven) {
  // Both branch arms set a7 to the same (invalid) service id before
  // the join; the syntactic backscan gives up at the join point, but
  // the interval fixpoint proves a7 is a singleton — the unknown-
  // envcall finding must still fire.
  Assembler a(0, false);
  a.beqz(a0, "other");
  a.li(a7, 99);
  a.jal(0, "join");
  a.label("other");
  a.li(a7, 99);
  a.label("join");
  a.ecall();
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  EXPECT_TRUE(report.has(Diag::kUnknownEnvcall)) << report.to_string();
}

// ---- report plumbing ----

TEST(Analyzer, ReportFormatsDiagnostics) {
  Assembler a(0, false);
  a.li(t0, mem::map::kBootRomBase);
  a.sw(0, 0, t0);
  cluster_exit(a);
  const Report report = analyze_cluster(a);
  ASSERT_FALSE(report.ok());
  const std::string text = report.to_string();
  EXPECT_NE(text.find("error[iopmp-denied]"), std::string::npos) << text;
  EXPECT_NE(text.find("error(s)"), std::string::npos) << text;
  for (const Diagnostic& d : report.diagnostics) {
    EXPECT_NE(diag_name(d.code), "?");
  }
}

TEST(Analyzer, PolicyOverridesSeverity) {
  Options options = cluster_options();
  options.policy.set(Diag::kFallThroughEnd, Severity::kWarning);
  Assembler a(0, false);
  a.nop();
  const Report report = analyze(a.assemble(), options);
  EXPECT_TRUE(report.has(Diag::kFallThroughEnd));
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.warnings(), 1u);
}

// ---- load-path integration ----

TEST(AnalyzerIntegration, RegisterKernelRejectsBrokenImage) {
  core::HulkVSoc soc;
  runtime::OffloadRuntime rt(&soc);
  Assembler a(0, false);
  a.li(t0, 1);  // no exit: falls off the image
  EXPECT_THROW(rt.register_kernel("broken", a.assemble()), SimError);
}

TEST(AnalyzerIntegration, WarnModeAcceptsBrokenImage) {
  core::HulkVSoc soc;
  runtime::OffloadRuntime rt(&soc);
  rt.set_analysis_mode(runtime::AnalysisMode::kWarn);
  Assembler a(0, false);
  a.li(t0, 1);
  const auto handle = rt.register_kernel("broken", a.assemble());
  EXPECT_TRUE(handle.valid());
}

TEST(AnalyzerIntegration, RegisterKernelAcceptsDma2dKernel) {
  core::HulkVSoc soc;
  runtime::OffloadRuntime rt(&soc);
  Assembler a(0, false);
  a.li(a1, mem::map::kL2Base);
  a.li(a2, 16);
  a.li(a3, 4);
  a.li(a4, 64);
  a.li(a7, cluster::envcall::kDma2d);
  a.ecall();
  a.li(a7, cluster::envcall::kDmaWait);
  a.ecall();
  cluster_exit(a);
  const auto handle = rt.register_kernel("dma2d", a.assemble());
  EXPECT_TRUE(handle.valid());
}

TEST(AnalyzerIntegration, RunHostProgramRejectsBrokenImage) {
  core::HulkVSoc soc;
  Assembler a(core::layout::kHostCodeBase, true);
  a.add(t0, t0, t0);  // no exit
  EXPECT_THROW(kernels::run_host_program(soc, a.assemble(), {}), SimError);
}

// ---- the whole corpus is the regression suite ----

TEST(AnalyzerCorpus, AllClusterKernelsAreClean) {
  const std::vector<kernels::KernelProgram> corpus = {
      kernels::cluster_matmul_i8(8, 8, 8),
      kernels::cluster_matmul_i32(8, 8, 8),
      kernels::cluster_matmul_f16(8, 8, 8),
      kernels::cluster_axpy_f32(64),
      kernels::cluster_axpy_f16(64),
      kernels::cluster_conv3x3_i8(8, 8),
      kernels::cluster_fir_i8(64, 8),
      kernels::cluster_relu_i8(64),
      kernels::cluster_dotp_f16(64),
  };
  for (const auto& kernel : corpus) {
    const Report report = analyze(kernel.words, cluster_options());
    EXPECT_EQ(report.errors(), 0u)
        << kernel.name << ":\n"
        << report.to_string();
  }
}

TEST(AnalyzerCorpus, AllHostProgramsAreClean) {
  const std::vector<kernels::KernelProgram> corpus = {
      kernels::host_matmul_i32(6, 6, 6),
      kernels::host_conv3x3_i32(8, 8),
      kernels::host_fir_i32(32, 8),
      kernels::host_matmul_f32(6, 6, 6),
      kernels::host_axpy_f32(32),
      kernels::host_dotp_f32(32),
      kernels::host_crc32(64),
      kernels::host_shell_sort(32),
      kernels::host_histogram(64),
      kernels::host_strsearch(64, 4),
      kernels::host_dhrystone_mix(4),
      kernels::host_stride_reads(16, 32, 2),
      kernels::host_mixed_reads(4, 1024, 32, 2),
      kernels::host_pointer_chase(32),
  };
  for (const auto& kernel : corpus) {
    const Report report = analyze(kernel.words, host_options());
    EXPECT_EQ(report.errors(), 0u)
        << kernel.name << ":\n"
        << report.to_string();
  }
}

TEST(Corpus, JsonMatchesGolden) {
  const std::string json =
      kernels::render_corpus_json(kernels::run_corpus_analysis());
  const std::string golden_path =
      std::string(HULKV_TEST_DATA_DIR) + "/golden/analyze_corpus.json";
  if (std::getenv("HULKV_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << json;
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  std::ifstream golden_file(golden_path);
  ASSERT_TRUE(golden_file.good()) << "missing golden file " << golden_path;
  std::ostringstream golden;
  golden << golden_file.rdbuf();
  EXPECT_EQ(json, golden.str())
      << "whole-corpus analysis drifted; regenerate with "
         "HULKV_REGEN_GOLDEN=1 if the change is intended";
}

}  // namespace
}  // namespace hulkv::analysis
