#include "kernels/iot_benchmarks.hpp"

#include <string_view>

#include "common/rng.hpp"
#include "isa/assembler.hpp"
#include "kernels/golden.hpp"
#include "kernels/host_kernels.hpp"

namespace hulkv::kernels {

using isa::Assembler;
using isa::Op;
using namespace isa::reg;

namespace {

void emit_exit(Assembler& a) {
  a.li(a7, 93);
  a.li(a0, 0);
  a.ecall();
}

Assembler make_host_asm() {
  return Assembler(core::layout::kHostCodeBase, /*rv64=*/true);
}

}  // namespace

KernelProgram host_crc32(u32 n) {
  Assembler a = make_host_asm();
  // All 32-bit values are kept sign-extended (RV64 *W convention) so the
  // xor/and algebra stays consistent; srliw performs the logical shift.
  a.li(t0, -1);  // crc = 0xFFFF_FFFF (sign-extended)
  a.mv(t1, a0);
  a.li(t2, n);
  a.add(t2, t2, a0);  // end pointer
  a.label("loop");
  a.lbu(t3, 0, t1);
  a.rr(Op::kXor, t3, t3, t0);
  a.andi(t3, t3, 0xFF);
  a.slli(t3, t3, 2);
  a.add(t3, t3, a1);
  a.lw(t4, 0, t3);  // table[(crc ^ byte) & 0xFF]
  a.ri(Op::kSrliw, t0, t0, 8);
  a.rr(Op::kXor, t0, t0, t4);
  a.addi(t1, t1, 1);
  a.blt(t1, t2, "loop");
  a.xori(t0, t0, -1);  // crc ^= 0xFFFF_FFFF
  a.sw(t0, 0, a2);
  emit_exit(a);
  return finish_program("crc32", Precision::kInt32, a, n);
}

KernelProgram host_shell_sort(u32 n) {
  static constexpr u32 kGaps[] = {1750, 701, 301, 132, 57, 23, 10, 4, 1};
  Assembler a = make_host_asm();
  // Registers: s0=gap*4 s1=i t0=value t1=j t2/t3=ptrs t4=cmp
  u32 block = 0;
  for (const u32 gap : kGaps) {
    if (gap >= n) continue;
    const std::string sfx = "_" + std::to_string(block++);
    a.li(s0, static_cast<i64>(gap) * 4);
    a.li(s1, gap);
    a.label("i_loop" + sfx);
    // value = data[i]
    a.slli(t2, s1, 2);
    a.add(t2, t2, a0);
    a.lw(t0, 0, t2);
    a.mv(t1, t2);  // &data[j], j = i
    a.label("j_loop" + sfx);
    // if (j < gap) done -> pointer form: if (&data[j] - gap*4 < data) done
    a.sub(t3, t1, s0);
    a.blt(t3, a0, "j_done" + sfx);
    a.lw(t4, 0, t3);
    a.bge(t0, t4, "j_done" + sfx);  // data[j-gap] <= value -> stop
    a.sw(t4, 0, t1);                // data[j] = data[j-gap]
    a.mv(t1, t3);                   // j -= gap
    a.j("j_loop" + sfx);
    a.label("j_done" + sfx);
    a.sw(t0, 0, t1);  // data[j] = value
    a.addi(s1, s1, 1);
    a.li(t6, n);
    a.blt(s1, t6, "i_loop" + sfx);
  }
  emit_exit(a);
  // ~n * #gaps element moves as a nominal op count.
  return finish_program("sort", Precision::kInt32, a, static_cast<u64>(n) * 9);
}

KernelProgram host_histogram(u32 n) {
  Assembler a = make_host_asm();
  // Zero the 256 bins.
  a.mv(t1, a1);
  a.li(t2, 256);
  a.label("zero");
  a.sw(zero, 0, t1);
  a.addi(t1, t1, 4);
  a.addi(t2, t2, -1);
  a.bnez(t2, "zero");
  // Stream the data.
  a.mv(t1, a0);
  a.li(t2, n);
  a.add(t2, t2, a0);
  a.label("loop");
  a.lbu(t3, 0, t1);
  a.slli(t3, t3, 2);
  a.add(t3, t3, a1);
  a.lw(t4, 0, t3);
  a.ri(Op::kAddiw, t4, t4, 1);
  a.sw(t4, 0, t3);
  a.addi(t1, t1, 1);
  a.blt(t1, t2, "loop");
  emit_exit(a);
  return finish_program("histogram", Precision::kInt32, a, n);
}

KernelProgram host_strsearch(u32 n, u32 m) {
  Assembler a = make_host_asm();
  // s0=count s1=i-ptr s2=end-of-valid-i t0=j t1..t4 temps
  a.li(s0, 0);
  a.mv(s1, a0);
  a.li(s2, static_cast<i64>(n) - m);
  a.add(s2, s2, a0);  // last valid start + ... inclusive bound
  a.label("outer");
  a.bltu(s2, s1, "done");
  a.li(t0, 0);
  a.label("inner");
  a.li(t5, m);
  a.bge(t0, t5, "match");
  a.add(t1, s1, t0);
  a.lbu(t2, 0, t1);
  a.add(t3, a1, t0);
  a.lbu(t4, 0, t3);
  a.bne(t2, t4, "no_match");
  a.addi(t0, t0, 1);
  a.j("inner");
  a.label("match");
  a.addi(s0, s0, 1);
  a.label("no_match");
  a.addi(s1, s1, 1);
  a.j("outer");
  a.label("done");
  a.sw(s0, 0, a2);
  emit_exit(a);
  return finish_program("strsearch", Precision::kInt32, a, n);
}

KernelProgram host_dhrystone_mix(u32 iters) {
  Assembler a = make_host_asm();
  // The classic Dhrystone flavour: record assignment (8-dword copy),
  // string comparison, integer arithmetic with a division, and a
  // procedure call, per iteration.
  a.li(s0, iters);
  a.j("main");

  // Proc_1(t0) -> t0*3+7 (a leaf call through ra).
  a.label("proc1");
  a.slli(t1, t0, 1);
  a.add(t0, t0, t1);
  a.addi(t0, t0, 7);
  a.ret();

  a.label("main");
  a.li(s1, 0);  // Int_Glob
  a.label("loop");
  // Record assignment: copy 64 bytes buf1 -> buf2.
  for (u32 off = 0; off < 64; off += 8) {
    a.ld(t1, static_cast<i32>(off), a0);
    a.sd(t1, static_cast<i32>(off), a1);
  }
  // String comparison of the copied prefix (always equal -> full scan).
  a.li(t2, 0);
  a.label("strcmp");
  a.add(t3, a0, t2);
  a.lbu(t4, 0, t3);
  a.add(t3, a1, t2);
  a.lbu(t5, 0, t3);
  a.bne(t4, t5, "differs");
  a.addi(t2, t2, 1);
  a.li(t6, 16);
  a.blt(t2, t6, "strcmp");
  a.label("differs");
  // Arithmetic block with a data dependency chain and a division.
  a.addi(s1, s1, 5);
  a.mul(t1, s1, s1);
  a.li(t6, 7);
  a.rr(Op::kDivw, t1, t1, t6);
  a.rr(Op::kAddw, s1, s1, t1);
  a.slli(s1, s1, 48);  // keep Int_Glob in 16 bits (zero-extend)
  a.srli(s1, s1, 48);
  // Procedure call.
  a.mv(t0, s1);
  a.call("proc1");
  a.rr(Op::kAddw, s1, s1, t0);
  a.slli(s1, s1, 48);
  a.srli(s1, s1, 48);
  a.addi(s0, s0, -1);
  a.bnez(s0, "loop");
  emit_exit(a);
  return finish_program("dhrystone", Precision::kInt32, a,
                        static_cast<u64>(iters) * 40);
}

KernelProgram host_stride_reads(u32 stride, u32 count, u32 rounds) {
  HULKV_CHECK(stride % 4 == 0, "stride must be word aligned");
  Assembler a = make_host_asm();
  // s0=round s1=read-index s2=stride t1=ptr t2=sink
  a.li(s0, rounds);
  a.li(s2, stride);
  a.label("round");
  a.mv(t1, a0);
  a.li(s1, count);
  a.label("reads");
  a.lw(t2, 0, t1);
  a.add(t1, t1, s2);
  a.addi(s1, s1, -1);
  a.bnez(s1, "reads");
  a.addi(s0, s0, -1);
  a.bnez(s0, "round");
  emit_exit(a);
  return finish_program("stride", Precision::kInt32, a,
                        static_cast<u64>(count) * rounds);
}

KernelProgram host_mixed_reads(u32 miss_slots, u32 footprint, u32 count,
                               u32 rounds) {
  HULKV_CHECK(miss_slots <= 16, "miss_slots is out of 16");
  HULKV_CHECK((footprint & (footprint - 1)) == 0, "footprint must be pow2");
  Assembler a = make_host_asm();
  // s0=round s1=read s2=slot-counter s3=miss_slots
  // t1=resident offset t2=thrash offset t4=addr t5=sink
  a.li(s3, miss_slots);
  a.li(s0, rounds);
  a.label("round");
  a.li(s1, count);
  a.li(s2, 0);
  a.li(t1, 0);
  a.label("reads");
  a.addi(s2, s2, 1);
  a.andi(s2, s2, 15);
  a.bltu(s2, s3, "miss_read");
  // Resident read: cycle a 2 kB window (L1 hit after warm-up; 2047
  // is the largest mask that fits an andi immediate).
  a.add(t4, a0, t1);
  a.lw(t5, 0, t4);
  a.addi(t1, t1, 64);
  a.andi(t1, t1, 2047);
  a.j("next");
  a.label("miss_read");
  // Thrash read: new line each time over a `footprint` window.
  a.add(t4, a1, t2);
  a.lw(t5, 0, t4);
  a.addi(t2, t2, 64);
  a.li(t6, static_cast<i64>(footprint) - 1);
  a.rr(Op::kAnd, t2, t2, t6);
  a.label("next");
  a.addi(s1, s1, -1);
  a.bnez(s1, "reads");
  a.addi(s0, s0, -1);
  a.bnez(s0, "round");
  emit_exit(a);
  return finish_program("mixed", Precision::kInt32, a,
                        static_cast<u64>(count) * rounds);
}

KernelProgram host_pointer_chase(u32 count) {
  Assembler a = make_host_asm();
  a.mv(t0, a0);
  a.li(t1, count);
  a.label("chase");
  a.ld(t0, 0, t0);  // next = *ptr — fully serialised loads
  a.addi(t1, t1, -1);
  a.bnez(t1, "chase");
  a.mv(a0, t0);  // keep the chain live
  a.li(a7, 93);
  a.ecall();
  return finish_program("chase", Precision::kInt32, a, count);
}

namespace {

// Fig. 8's input sizes, divided by `scale`. At scale 1 every input fits
// the 128 kB LLC (an embedded working set).
constexpr u32 kCrcBytes = 64 * 1024;
constexpr u32 kFirSamples = 16384;
constexpr u32 kFirTaps = 32;
constexpr u32 kSortElems = 16384;
constexpr u32 kHistBytes = 96 * 1024;
constexpr u32 kSearchBytes = 96 * 1024;
constexpr std::string_view kNeedle = "abcdabcd";
constexpr Addr kBase = core::layout::kSharedBase;

KernelProgram crc32_program(u32 scale) {
  return host_crc32(kCrcBytes / scale);
}

IotSetup crc32_setup(core::HulkVSoc& soc, u32 scale) {
  const u32 n = kCrcBytes / scale;
  Xoshiro256 rng(1);
  std::vector<u8> data(n);
  for (auto& b : data) b = static_cast<u8>(rng.next());
  const auto table = golden::crc32_table();
  soc.write_mem(kBase, data.data(), n);
  soc.write_mem(kBase + n, table.data(), 1024);
  return {crc32_program(scale), {kBase, kBase + n, kBase + n + 1024}};
}

KernelProgram fir_program(u32 scale) {
  return host_fir_i32(kFirSamples / scale, kFirTaps);
}

IotSetup fir_setup(core::HulkVSoc& soc, u32 scale) {
  const u32 n = kFirSamples / scale;
  Xoshiro256 rng(2);
  std::vector<i32> x(n), h(kFirTaps);
  for (auto& v : x) v = static_cast<i32>(rng.next_range(-1000, 1000));
  for (auto& v : h) v = static_cast<i32>(rng.next_range(-16, 16));
  const Addr ph = kBase + n * 4;
  soc.write_mem(kBase, x.data(), n * 4);
  soc.write_mem(ph, h.data(), kFirTaps * 4);
  return {fir_program(scale), {kBase, ph, ph + kFirTaps * 4}};
}

KernelProgram sort_program(u32 scale) {
  return host_shell_sort(kSortElems / scale);
}

IotSetup sort_setup(core::HulkVSoc& soc, u32 scale) {
  const u32 n = kSortElems / scale;
  Xoshiro256 rng(3);
  std::vector<i32> data(n);
  for (auto& v : data)
    v = static_cast<i32>(rng.next_range(-1000000, 1000000));
  soc.write_mem(kBase, data.data(), n * 4);
  return {sort_program(scale), {kBase}};
}

KernelProgram histogram_program(u32 scale) {
  return host_histogram(kHistBytes / scale);
}

IotSetup histogram_setup(core::HulkVSoc& soc, u32 scale) {
  const u32 n = kHistBytes / scale;
  Xoshiro256 rng(4);
  std::vector<u8> data(n);
  for (auto& b : data) b = static_cast<u8>(rng.next());
  soc.write_mem(kBase, data.data(), n);
  return {histogram_program(scale), {kBase, kBase + n}};
}

KernelProgram strsearch_program(u32 scale) {
  return host_strsearch(kSearchBytes / scale,
                        static_cast<u32>(kNeedle.size()));
}

IotSetup strsearch_setup(core::HulkVSoc& soc, u32 scale) {
  const u32 n = kSearchBytes / scale;
  Xoshiro256 rng(5);
  std::vector<u8> hay(n);
  for (auto& b : hay) b = static_cast<u8>('a' + rng.next_below(4));
  soc.write_mem(kBase, hay.data(), n);
  soc.write_mem(kBase + n, kNeedle.data(), kNeedle.size());
  return {strsearch_program(scale), {kBase, kBase + n, kBase + n + 64}};
}

constexpr IotBenchmark kIotBenchmarks[] = {
    {"crc32", crc32_program, crc32_setup},
    {"fir", fir_program, fir_setup},
    {"sort", sort_program, sort_setup},
    {"histogram", histogram_program, histogram_setup},
    {"strsearch", strsearch_program, strsearch_setup},
};

}  // namespace

std::span<const IotBenchmark> iot_benchmarks() { return kIotBenchmarks; }

}  // namespace hulkv::kernels
