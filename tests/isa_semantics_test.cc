// Directed semantic tests for (nearly) every implemented instruction on
// both cores: table-driven RV64 cases executed on the CVA6 ISS, and
// RV32+Xpulp cases executed on PMCA core 0. Complements isa_test.cc
// (encodings) and host_test/cluster_test (pipelines & devices): here the
// unit under test is each operation's arithmetic.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>

#include "common/bitutil.hpp"
#include "common/half.hpp"
#include "core/soc.hpp"
#include "isa/assembler.hpp"
#include "kernels/kernel.hpp"

namespace hulkv {
namespace {

using isa::Assembler;
using isa::Op;
using namespace isa::reg;

core::SocConfig fast_config() {
  core::SocConfig cfg;
  cfg.main_memory = core::MainMemoryKind::kDdr4;
  return cfg;
}

// ---------------------------------------------------------------------
// Host (RV64) table-driven ALU semantics.
// ---------------------------------------------------------------------

// gtest, and ctest after it, names each case by a byte dump of its
// parameter, padding included. `pad` spells out the bytes after `op` that
// the compiler would leave uninitialized, so a case has the same name in
// every build. Its values are the ones those names already carry; the
// test never reads them.
struct HostRCase {
  Op op;
  u8 pad[6];
  u64 a, b;
  u64 want;
};
static_assert(sizeof(HostRCase) == 32, "no implicit padding");

class HostROp : public ::testing::TestWithParam<HostRCase> {};

TEST_P(HostROp, ComputesExpected) {
  const HostRCase& c = GetParam();
  core::HulkVSoc soc(fast_config());
  Assembler a(core::layout::kHostCodeBase, true);
  a.li(t0, static_cast<i64>(c.a));
  a.li(t1, static_cast<i64>(c.b));
  a.rr(c.op, a0, t0, t1);
  a.li(a7, 93);
  a.ecall();
  const auto run = kernels::run_host_program(soc, a.assemble(), {});
  EXPECT_EQ(run.exit_code, c.want)
      << isa::mnemonic(c.op) << "(" << c.a << ", " << c.b << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Alu, HostROp,
    ::testing::Values(
        HostRCase{Op::kAdd, {0x3F, 0x14, 0x7E, 0x55}, 3, 4, 7},
        HostRCase{Op::kAdd, {}, ~0ull, 1, 0},  // wraparound
        HostRCase{Op::kSub, {0xD8, 0x07, 0xFF, 0x7F}, 3, 4, ~0ull},
        HostRCase{Op::kSll, {0x47, 0xFE, 0x7D, 0x55}, 1, 63, 1ull << 63},
        // Shift amount masked to 6 bits.
        HostRCase{Op::kSll, {0x72, 0x75, 0x6E, 0x5F, 0x64, 0x65}, 1, 64, 1},
        HostRCase{Op::kSrl, {0x3F, 0x14, 0x7E, 0x55}, 0x8000000000000000ull,
                  63, 1},
        HostRCase{Op::kSra, {0x72, 0x75, 0x6E, 0x5F, 0x64, 0x65},
                  0x8000000000000000ull, 63, ~0ull},
        HostRCase{Op::kSlt, {0x3F, 0x14, 0x7E, 0x55}, static_cast<u64>(-1), 0,
                  1},
        HostRCase{Op::kSltu, {}, static_cast<u64>(-1), 0, 0},
        HostRCase{Op::kXor, {0x47, 0xFE, 0x7D, 0x55}, 0xFF00, 0x0FF0, 0xF0F0},
        HostRCase{Op::kOr, {}, 0xF0, 0x0F, 0xFF},
        HostRCase{Op::kAnd, {}, 0xFF, 0x0F, 0x0F},
        HostRCase{Op::kMul, {}, 0xFFFFFFFFull, 0xFFFFFFFFull,
                  0xFFFFFFFE00000001ull},
        HostRCase{Op::kMulhsu, {}, static_cast<u64>(-1), static_cast<u64>(-1),
                  static_cast<u64>(-1)},  // (-1 * huge) >> 64
        HostRCase{Op::kDivu, {}, 7, 2, 3},
        HostRCase{Op::kDivu, {}, 7, 0, ~0ull},
        HostRCase{Op::kRemu, {}, 7, 0, 7},
        HostRCase{Op::kRemu, {}, 7, 2, 1},
        HostRCase{Op::kAddw, {}, 0x7FFFFFFF, 1, 0xFFFFFFFF80000000ull},
        HostRCase{Op::kSubw, {}, 0, 1, ~0ull},
        HostRCase{Op::kSrlw, {}, 0x80000000ull, 31, 1},
        HostRCase{Op::kSraw, {0x00, 0x61, 0x5F, 0x73, 0x65, 0x6D},
                  0x80000000ull, 31, ~0ull},
        HostRCase{Op::kDivuw, {}, 0xFFFFFFFFull, 2, 0x7FFFFFFF},
        HostRCase{Op::kRemuw, {0x48, 0, 0, 0, 0xD0, 0xEF}, 0xFFFFFFFFull, 0,
                  ~0ull},  // sign-extended
        HostRCase{Op::kRemw, {}, static_cast<u64>(-7), 2,
                  static_cast<u64>(-1)},
        HostRCase{Op::kMulw, {0x48, 0, 0, 0, 0xD0, 0xCA}, 0x10000, 0x10000,
                  0}));

TEST(HostImm, SltiuTreatsImmAsUnsignedOfSext) {
  // sltiu a0, t0, -1 compares against 0xFFFF...FFFF.
  core::HulkVSoc soc(fast_config());
  Assembler a(core::layout::kHostCodeBase, true);
  a.li(t0, 5);
  a.ri(Op::kSltiu, a0, t0, -1);
  a.li(a7, 93);
  a.ecall();
  EXPECT_EQ(kernels::run_host_program(soc, a.assemble(), {}).exit_code, 1u);
}

TEST(HostImm, LwuZeroExtends) {
  core::HulkVSoc soc(fast_config());
  Assembler a(core::layout::kHostCodeBase, true);
  a.li(t0, core::layout::kSharedBase);
  a.li(t1, -1);
  a.sw(t1, 0, t0);
  a.load(Op::kLwu, a0, 0, t0);
  a.li(a7, 93);
  a.ecall();
  EXPECT_EQ(kernels::run_host_program(soc, a.assemble(), {}).exit_code,
            0xFFFFFFFFull);
}

TEST(HostImm, AuipcIsPcRelative) {
  core::HulkVSoc soc(fast_config());
  Assembler a(core::layout::kHostCodeBase, true);
  a.ri(Op::kAuipc, a0, 0, 0x1000);  // pc + 0x1000 at instruction 0
  a.li(a7, 93);
  a.ecall();
  EXPECT_EQ(kernels::run_host_program(soc, a.assemble(), {}).exit_code,
            core::layout::kHostCodeBase + 0x1000);
}

// ---------------------------------------------------------------------
// Host FP semantics.
// ---------------------------------------------------------------------

/// Run a host fragment that leaves a float's bits in a0.
u64 run_host_fp(const std::function<void(Assembler&)>& body) {
  core::HulkVSoc soc(fast_config());
  Assembler a(core::layout::kHostCodeBase, true);
  body(a);
  a.li(a7, 93);
  a.ecall();
  return kernels::run_host_program(soc, a.assemble(), {}).exit_code;
}

void load_f32(Assembler& a, u8 freg, float v) {
  a.li(t6, std::bit_cast<u32>(v));
  a.ri(Op::kFmvWX, freg, t6, 0);
}

void load_f64(Assembler& a, u8 freg, double v) {
  a.li(t6, static_cast<i64>(std::bit_cast<u64>(v)));
  a.ri(Op::kFmvDX, freg, t6, 0);
}

TEST(HostFp, SingleArithmeticAndCompare) {
  EXPECT_EQ(run_host_fp([](Assembler& a) {
              load_f32(a, 1, 10.0f);
              load_f32(a, 2, 4.0f);
              a.rr(Op::kFsubS, 0, 1, 2);
              a.ri(Op::kFmvXW, a0, 0, 0);
            }),
            sign_extend(std::bit_cast<u32>(6.0f), 32) & 0xFFFFFFFFull);
  EXPECT_EQ(run_host_fp([](Assembler& a) {
              load_f32(a, 1, 10.0f);
              load_f32(a, 2, 4.0f);
              a.rr(Op::kFdivS, 0, 1, 2);
              a.ri(Op::kFmvXW, a0, 0, 0);
            }),
            std::bit_cast<u32>(2.5f));
  EXPECT_EQ(run_host_fp([](Assembler& a) {
              load_f32(a, 1, 9.0f);
              a.ri(Op::kFsqrtS, 0, 1, 0);
              a.ri(Op::kFmvXW, a0, 0, 0);
            }),
            std::bit_cast<u32>(3.0f));
  EXPECT_EQ(run_host_fp([](Assembler& a) {
              load_f32(a, 1, -3.0f);
              load_f32(a, 2, 5.0f);
              a.rr(Op::kFminS, 0, 1, 2);
              a.ri(Op::kFmvXW, a0, 0, 0);
            }),
            sign_extend(std::bit_cast<u32>(-3.0f), 32) & 0xFFFFFFFFFFFFFFFFull);
}

TEST(HostFp, SignInjection) {
  // fsgnjn.s f0, f1, f1 == fneg.
  EXPECT_EQ(run_host_fp([](Assembler& a) {
              load_f32(a, 1, 2.0f);
              a.rr(Op::kFsgnjnS, 0, 1, 1);
              a.ri(Op::kFmvXW, a0, 0, 0);
            }) &
                0xFFFFFFFFull,
            std::bit_cast<u32>(-2.0f));
  // fsgnjx.s f0, f1, f1 == fabs.
  EXPECT_EQ(run_host_fp([](Assembler& a) {
              load_f32(a, 1, -2.0f);
              a.rr(Op::kFsgnjxS, 0, 1, 1);
              a.ri(Op::kFmvXW, a0, 0, 0);
            }),
            std::bit_cast<u32>(2.0f));
}

TEST(HostFp, ConversionSaturation) {
  // fcvt.w.s of NaN -> INT32_MAX (RISC-V spec).
  EXPECT_EQ(run_host_fp([](Assembler& a) {
              load_f32(a, 1, std::numeric_limits<float>::quiet_NaN());
              a.ri(Op::kFcvtWS, a0, 1, 0);
            }),
            0x7FFFFFFFull);
  // fcvt.w.s of -1e10 saturates to INT32_MIN.
  EXPECT_EQ(run_host_fp([](Assembler& a) {
              load_f32(a, 1, -1e10f);
              a.ri(Op::kFcvtWS, a0, 1, 0);
            }),
            0xFFFFFFFF80000000ull);
  // fcvt.l.s round-trips a large value through fcvt.s.l.
  EXPECT_EQ(run_host_fp([](Assembler& a) {
              a.li(t0, 1 << 20);
              a.ri(Op::kFcvtSL, 1, t0, 0);
              a.ri(Op::kFcvtLS, a0, 1, 0);
            }),
            1ull << 20);
}

TEST(HostFp, NanComparesFalse) {
  EXPECT_EQ(run_host_fp([](Assembler& a) {
              load_f32(a, 1, std::numeric_limits<float>::quiet_NaN());
              load_f32(a, 2, 1.0f);
              a.rr(Op::kFltS, a0, 1, 2);
            }),
            0u);
  EXPECT_EQ(run_host_fp([](Assembler& a) {
              load_f32(a, 1, std::numeric_limits<float>::quiet_NaN());
              a.rr(Op::kFeqS, a0, 1, 1);
            }),
            0u);
}

TEST(HostFp, DoubleArithmetic) {
  EXPECT_EQ(run_host_fp([](Assembler& a) {
              load_f64(a, 1, 1.0);
              load_f64(a, 2, 3.0);
              a.rr(Op::kFdivD, 0, 1, 2);
              a.ri(Op::kFmvXD, a0, 0, 0);
            }),
            std::bit_cast<u64>(1.0 / 3.0));
  // fmsub.d: 2*3 - 1 = 5.
  EXPECT_EQ(run_host_fp([](Assembler& a) {
              load_f64(a, 1, 2.0);
              load_f64(a, 2, 3.0);
              load_f64(a, 3, 1.0);
              a.r4(Op::kFmsubD, 0, 1, 2, 3);
              a.ri(Op::kFmvXD, a0, 0, 0);
            }),
            std::bit_cast<u64>(5.0));
  // fcvt.d.l and back.
  EXPECT_EQ(run_host_fp([](Assembler& a) {
              a.li(t0, -123456789);
              a.ri(Op::kFcvtDL, 1, t0, 0);
              a.ri(Op::kFcvtLD, a0, 1, 0);
            }),
            static_cast<u64>(-123456789));
  // fsgnj.d moves signs across doubles.
  EXPECT_EQ(run_host_fp([](Assembler& a) {
              load_f64(a, 1, 4.0);
              load_f64(a, 2, -1.0);
              a.rr(Op::kFsgnjD, 0, 1, 2);
              a.ri(Op::kFmvXD, a0, 0, 0);
            }),
            std::bit_cast<u64>(-4.0));
  EXPECT_EQ(run_host_fp([](Assembler& a) {
              load_f64(a, 1, 1.5);
              load_f64(a, 2, 2.5);
              a.rr(Op::kFleD, a0, 1, 2);
            }),
            1u);
}

// ---------------------------------------------------------------------
// PMCA (RV32 + Xpulp) semantics: run a fragment on core 0 that stores
// results into a TCDM scratch area.
// ---------------------------------------------------------------------

constexpr Addr kTcdm = mem::map::kTcdmBase;
constexpr u32 kResults = static_cast<u32>(kTcdm) + 0xE00;
constexpr Addr kKernelL2 = mem::map::kL2Base;

/// Runs `body` on core 0 (other cores exit immediately); returns the
/// first `n` result words from the scratch area. Inside `body`, register
/// s10 holds the results base.
std::vector<u32> run0(core::HulkVSoc& soc,
                      const std::function<void(Assembler&)>& body,
                      size_t n) {
  Assembler a(0, false);
  a.ri(Op::kCsrrs, t0, 0, isa::csr::kMhartid);
  a.bnez(t0, "skip");
  a.li(s10, kResults);
  body(a);
  a.label("skip");
  a.li(a7, cluster::envcall::kExit);
  a.ecall();
  soc.load_program(kKernelL2, a.assemble());
  soc.cluster().run_kernel(soc.host().now(), kKernelL2,
                           static_cast<u32>(kTcdm));
  std::vector<u32> out(n);
  std::memcpy(out.data(),
              soc.cluster().tcdm().storage().data() + (kResults - kTcdm),
              n * 4);
  return out;
}

// `pad` as in HostRCase.
struct PmcaRCase {
  Op op;
  u8 pad[2];
  u32 a, b;
  u32 want;
};
static_assert(sizeof(PmcaRCase) == 16, "no implicit padding");

class PmcaROp : public ::testing::TestWithParam<PmcaRCase> {};

TEST_P(PmcaROp, ComputesExpected) {
  const PmcaRCase& c = GetParam();
  core::HulkVSoc soc(fast_config());
  const auto out = run0(
      soc,
      [&](Assembler& a) {
        a.li(t1, static_cast<i64>(static_cast<i32>(c.a)));
        a.li(t2, static_cast<i64>(static_cast<i32>(c.b)));
        a.rr(c.op, t3, t1, t2);
        a.sw(t3, 0, s10);
      },
      1);
  EXPECT_EQ(out[0], c.want)
      << isa::mnemonic(c.op) << "(0x" << std::hex << c.a << ", 0x" << c.b
      << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Rv32AndXpulp, PmcaROp,
    ::testing::Values(
        // RV32 M edge cases.
        PmcaRCase{Op::kMul, {0xD8, 0x07}, 0xFFFF, 0x10001, 0xFFFFFFFF},
        PmcaRCase{Op::kMulh, {0xD8, 0x07}, 0x80000000u, 0x80000000u,
                  0x40000000},
        PmcaRCase{Op::kMulhu, {0xD8, 0x07}, 0xFFFFFFFFu, 0xFFFFFFFFu,
                  0xFFFFFFFE},
        PmcaRCase{Op::kMulhsu, {0x3F, 0x14}, 0xFFFFFFFFu, 2,
                  0xFFFFFFFF},  // -1 * 2 >> 32
        PmcaRCase{Op::kDiv, {0xD8, 0x07}, 0x80000000u, 0xFFFFFFFFu,
                  0x80000000},
        PmcaRCase{Op::kDiv, {0x3F, 0x14}, 100, 0, 0xFFFFFFFF},
        PmcaRCase{Op::kRem, {}, 0x80000000u, 0xFFFFFFFFu, 0},
        PmcaRCase{Op::kDivu, {0x3F, 0x14}, 0xFFFFFFFEu, 2, 0x7FFFFFFF},
        // Xpulp scalar DSP.
        PmcaRCase{Op::kPMin, {0xD8, 0x07}, 0xFFFFFFFBu, 3,
                  0xFFFFFFFB},  // min(-5, 3)
        PmcaRCase{Op::kPMax, {0x3F, 0x14}, 0xFFFFFFFBu, 3, 3},
        PmcaRCase{Op::kPMsu, {0xD8, 0x07}, 0, 0, 0},
        // Xpulp SIMD byte lanes.
        PmcaRCase{Op::kPvSubB, {}, 0x05050505, 0x01020304, 0x04030201},
        PmcaRCase{Op::kPvMinB, {}, 0x7F80FF01, 0x00000000, 0x0080FF00},
        PmcaRCase{Op::kPvMaxB, {0x3F, 0x14}, 0x7F80FF01, 0x00000000,
                  0x7F000001},
        // Xpulp SIMD halfword lanes.
        PmcaRCase{Op::kPvSubH, {0x3F, 0x14}, 0x00050003, 0x00010001,
                  0x00040002},
        PmcaRCase{Op::kPvMinH, {0x3F, 0x14}, 0x8000FFFF, 0x00000000,
                  0x8000FFFF},
        PmcaRCase{Op::kPvMaxH, {}, 0x8000FFFF, 0x00000000, 0x00000000},
        PmcaRCase{Op::kPvSraH, {}, 0xF0000010, 2, 0xFC000004},
        // Non-accumulating dot products.
        PmcaRCase{Op::kPvDotspB, {}, 0x01010101, 0x02020202, 8},
        PmcaRCase{Op::kPvDotspH, {0x3F, 0x14}, 0x00020003, 0x00040005, 23}));

TEST(PmcaUnary, AbsAndExtensions) {
  core::HulkVSoc soc(fast_config());
  const auto out = run0(
      soc,
      [](Assembler& a) {
        a.li(t1, -42);
        a.ri(Op::kPAbs, t2, t1, 0);
        a.sw(t2, 0, s10);
        a.li(t1, 0x8081);
        a.ri(Op::kPExths, t2, t1, 0);
        a.sw(t2, 4, s10);
        a.ri(Op::kPExthz, t2, t1, 0);
        a.sw(t2, 8, s10);
        a.li(t1, 0x80);
        a.ri(Op::kPExtbs, t2, t1, 0);
        a.sw(t2, 12, s10);
        a.ri(Op::kPExtbz, t2, t1, 0);
        a.sw(t2, 16, s10);
      },
      5);
  EXPECT_EQ(out[0], 42u);
  EXPECT_EQ(out[1], 0xFFFF8081u);
  EXPECT_EQ(out[2], 0x00008081u);
  EXPECT_EQ(out[3], 0xFFFFFF80u);
  EXPECT_EQ(out[4], 0x00000080u);
}

TEST(PmcaMemory, PostIncrementAllWidths) {
  core::HulkVSoc soc(fast_config());
  const auto out = run0(
      soc,
      [](Assembler& a) {
        const u32 buf = static_cast<u32>(kTcdm) + 0xD00;
        a.li(t1, buf);
        a.li(t2, -2);  // bytes 0xFE 0xFF ...
        a.store(Op::kPShPost, t2, 2, t1);   // halfword, +2
        a.li(t2, 0x7F);
        a.store(Op::kPSbPost, t2, 1, t1);   // byte, +1
        // Read back with post-increment loads.
        a.li(t1, buf);
        a.load(Op::kPLhPost, t3, 2, t1);    // sign-extended -2
        a.load(Op::kPLbPost, t4, 1, t1);    // sign-extended 0x7F
        a.sw(t3, 0, s10);
        a.sw(t4, 4, s10);
        // Unsigned variants.
        a.li(t1, buf);
        a.load(Op::kPLhuPost, t3, 2, t1);
        a.load(Op::kPLbuPost, t4, 1, t1);
        a.sw(t3, 8, s10);
        a.sw(t4, 12, s10);
        a.sw(t1, 16, s10);  // pointer advanced by 3
      },
      5);
  EXPECT_EQ(static_cast<i32>(out[0]), -2);
  EXPECT_EQ(out[1], 0x7Fu);
  EXPECT_EQ(out[2], 0xFFFEu);
  EXPECT_EQ(out[3], 0x7Fu);
  EXPECT_EQ(out[4], static_cast<u32>(kTcdm) + 0xD00 + 3);
}

TEST(PmcaHwLoop, ExplicitStartEndCount) {
  // lp.starti / lp.endi / lp.counti assembled individually (not via
  // lp.setup): sum 10 iterations.
  core::HulkVSoc soc(fast_config());
  const auto out = run0(
      soc,
      [](Assembler& a) {
        a.li(t1, 0);
        a.lp_starti(0, "body");
        a.lp_endi(0, "end");
        a.lp_counti(0, 10);
        a.label("body");
        a.addi(t1, t1, 3);
        a.label("end");
        a.sw(t1, 0, s10);
      },
      1);
  EXPECT_EQ(out[0], 30u);
}

TEST(PmcaHwLoop, CountFromRegister) {
  core::HulkVSoc soc(fast_config());
  const auto out = run0(
      soc,
      [](Assembler& a) {
        a.li(t1, 0);
        a.li(t2, 25);
        a.lp_starti(0, "body");
        a.lp_endi(0, "end");
        a.lp_count(0, t2);
        a.label("body");
        a.addi(t1, t1, 1);
        a.label("end");
        a.sw(t1, 0, s10);
      },
      1);
  EXPECT_EQ(out[0], 25u);
}

TEST(PmcaFp, ScalarSingles) {
  core::HulkVSoc soc(fast_config());
  const auto out = run0(
      soc,
      [](Assembler& a) {
        a.li(t1, std::bit_cast<u32>(7.0f));
        a.ri(Op::kFmvWX, 1, t1, 0);
        a.li(t1, std::bit_cast<u32>(2.0f));
        a.ri(Op::kFmvWX, 2, t1, 0);
        a.rr(Op::kFdivS, 0, 1, 2);
        a.ri(Op::kFmvXW, t2, 0, 0);
        a.sw(t2, 0, s10);
        a.rr(Op::kFmulS, 0, 1, 2);  // 7*2
        a.ri(Op::kFmvXW, t2, 0, 0);
        a.sw(t2, 4, s10);
        a.ri(Op::kFcvtWS, t2, 0, 0);
        a.sw(t2, 8, s10);
      },
      3);
  EXPECT_EQ(std::bit_cast<float>(out[0]), 3.5f);
  EXPECT_EQ(std::bit_cast<float>(out[1]), 14.0f);
  EXPECT_EQ(out[2], 14u);
}

TEST(PmcaFp16, VectorAddSubMulAndCvt) {
  core::HulkVSoc soc(fast_config());
  const u16 one = float_to_half_bits(1.0f);
  const u16 two = float_to_half_bits(2.0f);
  const u16 three = float_to_half_bits(3.0f);
  const u32 a_pair = one | (static_cast<u32>(two) << 16);    // [1, 2]
  const u32 b_pair = two | (static_cast<u32>(three) << 16);  // [2, 3]
  const auto out = run0(
      soc,
      [&](Assembler& a) {
        a.li(t1, static_cast<i32>(a_pair));
        a.ri(Op::kFmvWX, 1, t1, 0);
        a.li(t1, static_cast<i32>(b_pair));
        a.ri(Op::kFmvWX, 2, t1, 0);
        a.rr(Op::kVfaddH, 3, 1, 2);
        a.ri(Op::kFmvXW, t2, 3, 0);
        a.sw(t2, 0, s10);
        a.rr(Op::kVfsubH, 3, 2, 1);
        a.ri(Op::kFmvXW, t2, 3, 0);
        a.sw(t2, 4, s10);
        a.rr(Op::kVfmulH, 3, 1, 2);
        a.ri(Op::kFmvXW, t2, 3, 0);
        a.sw(t2, 8, s10);
        // vfcvt.h.s packs two fp32 into fp16 lanes.
        a.li(t1, std::bit_cast<u32>(0.5f));
        a.ri(Op::kFmvWX, 4, t1, 0);
        a.li(t1, std::bit_cast<u32>(-0.25f));
        a.ri(Op::kFmvWX, 5, t1, 0);
        a.rr(Op::kVfcvtHS, 3, 4, 5);
        a.ri(Op::kFmvXW, t2, 3, 0);
        a.sw(t2, 12, s10);
      },
      4);
  const auto lane = [](u32 pair, int i) {
    return half_bits_to_float(static_cast<u16>(pair >> (16 * i)));
  };
  EXPECT_EQ(lane(out[0], 0), 3.0f);  // 1+2
  EXPECT_EQ(lane(out[0], 1), 5.0f);  // 2+3
  EXPECT_EQ(lane(out[1], 0), 1.0f);  // 2-1
  EXPECT_EQ(lane(out[1], 1), 1.0f);  // 3-2
  EXPECT_EQ(lane(out[2], 0), 2.0f);  // 1*2
  EXPECT_EQ(lane(out[2], 1), 6.0f);  // 2*3
  EXPECT_EQ(lane(out[3], 0), 0.5f);
  EXPECT_EQ(lane(out[3], 1), -0.25f);
}

TEST(PmcaMacLoad, MemoryOperandDotProducts) {
  core::HulkVSoc soc(fast_config());
  const auto out = run0(
      soc,
      [](Assembler& a) {
        const u32 buf = static_cast<u32>(kTcdm) + 0xD80;
        // Store vectors [1,2,3,4] (bytes) and [2,-1] (halves).
        a.li(t1, buf);
        a.li(t2, 0x04030201);
        a.sw(t2, 0, t1);
        a.li(t2, 0xFFFF0002);  // halves: 2, -1
        a.sw(t2, 4, t1);
        // pv.sdotsp.b.ld: acc 10 += [1,2,3,4].[1,1,1,1] = 20, ptr += 4.
        a.li(t3, 10);
        a.li(t4, 0x01010101);
        a.rr(Op::kPvSdotspBMem, t3, t1, t4);
        a.sw(t3, 0, s10);
        // Pointer now at the halfword vector.
        // pv.sdotsp.h.ld: acc 0 += 2*3 + (-1)*(-2) = 8.
        a.li(t3, 0);
        a.li(t4, (0xFFFEu << 16) | 3);  // halves: 3, -2
        a.rr(Op::kPvSdotspHMem, t3, t1, t4);
        a.sw(t3, 4, s10);
        a.sw(t1, 8, s10);  // pointer advanced by 8 in total
      },
      3);
  EXPECT_EQ(out[0], 20u);
  EXPECT_EQ(out[1], 8u);
  EXPECT_EQ(out[2], static_cast<u32>(kTcdm) + 0xD80 + 8);
}

TEST(PmcaClip, WidthSweep) {
  core::HulkVSoc soc(fast_config());
  for (const u32 width : {4u, 8u, 16u}) {
    const i32 hi = (1 << (width - 1)) - 1;
    const i32 lo = -(1 << (width - 1));
    const auto out = run0(
        soc,
        [&](Assembler& a) {
          a.li(t1, 100000);
          a.ri(Op::kPClip, t2, t1, static_cast<i32>(width));
          a.sw(t2, 0, s10);
          a.li(t1, -100000);
          a.ri(Op::kPClip, t2, t1, static_cast<i32>(width));
          a.sw(t2, 4, s10);
        },
        2);
    EXPECT_EQ(static_cast<i32>(out[0]), hi) << width;
    EXPECT_EQ(static_cast<i32>(out[1]), lo) << width;
  }
}

}  // namespace
}  // namespace hulkv
