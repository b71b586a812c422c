#include "cluster/pmca_core.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/bitutil.hpp"
#include "common/hex.hpp"
#include "common/half.hpp"
#include "common/log.hpp"
#include "isa/disasm.hpp"
#include "telemetry/telemetry.hpp"

namespace hulkv::cluster {

using isa::Instr;
using isa::Op;

namespace {

float f32(u32 raw) { return std::bit_cast<float>(raw); }
u32 raw32(float v) { return std::bit_cast<u32>(v); }

/// Per-lane fp16 helper: op over two packed halves, rounded per lane.
template <typename F>
u32 fp16_lanes(u32 a, u32 b, F&& op) {
  u32 out = 0;
  for (int lane = 0; lane < 2; ++lane) {
    const float x = half_bits_to_float(static_cast<u16>(a >> (16 * lane)));
    const float y = half_bits_to_float(static_cast<u16>(b >> (16 * lane)));
    out |= static_cast<u32>(float_to_half_bits(op(x, y))) << (16 * lane);
  }
  return out;
}

i32 clip(i32 v, unsigned width) {
  const i32 hi = (1 << (width - 1)) - 1;
  const i32 lo = -(1 << (width - 1));
  return std::clamp(v, lo, hi);
}

}  // namespace

PmcaCore::PmcaCore(const PmcaCoreConfig& config, Tcdm* tcdm, Addr tcdm_base,
                   ClusterIcache* icache, mem::SocBus* bus)
    : config_(config),
      tcdm_(tcdm),
      tcdm_base_(tcdm_base),
      tcdm_data_(tcdm != nullptr ? tcdm->storage().data() : nullptr),
      tcdm_size_(tcdm != nullptr ? tcdm->storage().size() : 0),
      icache_(icache),
      bus_(bus),
      stats_("pmca_core" + std::to_string(config.core_id)),
      ctr_loads_(stats_.counter("loads")),
      ctr_stores_(stats_.counter("stores")),
      ctr_mac_ops_(stats_.counter("mac_ops")),
      ctr_simd_ops_(stats_.counter("simd_ops")),
      ctr_taken_branches_(stats_.counter("taken_branches")),
      ctr_hwloop_backedges_(stats_.counter("hwloop_backedges")),
      blocks_([bus](Addr pc) {
        u32 word = 0;
        bus->read_functional(pc, &word, 4);
        return word;
      }) {
  HULKV_CHECK(tcdm != nullptr && icache != nullptr && bus != nullptr,
              "PMCA core needs TCDM, I-cache and bus");
}

namespace {
/// Commit events are batched (one counter event per kCommitBatchSize
/// retired instructions); loads stalling at least kStallThreshold cycles
/// are recorded individually (demand AXI accesses, bad bank conflicts).
constexpr u32 kCommitBatchSize = 1024;
constexpr Cycles kStallThreshold = 8;
}  // namespace

void PmcaCore::trace_commit() {
  if (++pending_commits_ < kCommitBatchSize) return;
  auto& sink = trace::sink();
  sink.counter(sink.resolve(trace_track_, stats_.name()),
               trace::Ev::kCommitBatch, cycle_, pending_commits_);
  pending_commits_ = 0;
}

void PmcaCore::trace_stall(Cycles issue, Cycles stall, Addr addr) {
  auto& sink = trace::sink();
  sink.instant(sink.resolve(trace_track_, stats_.name()), trace::Ev::kStall,
               issue, stall, addr);
}

void PmcaCore::trace_kernel_done(Cycles dispatched) {
  if (!trace::enabled()) return;
  auto& sink = trace::sink();
  const u32 track = sink.resolve(trace_track_, stats_.name());
  if (pending_commits_ > 0) {
    sink.counter(track, trace::Ev::kCommitBatch, cycle_, pending_commits_);
    pending_commits_ = 0;
  }
  sink.complete(track, trace::Ev::kRun, dispatched, cycle_, instret_);
}

void PmcaCore::reset_for_run(Addr entry) {
  std::fill(std::begin(x_), std::end(x_), 0);
  std::fill(std::begin(f_), std::end(f_), 0);
  loops_[0] = loops_[1] = HwLoop{};
  pc_ = entry;
  fetch_line_ = ~0ull;
  state_ = State::kRunning;
  cursor_ = {};
}

u32 PmcaCore::load_axi(Addr addr, u32 bytes, Cycles issue) {
  u64 wide = 0;
  const u64 claimed_before = profile::claimed();
  cycle_ = std::max(
      cycle_, bus_->read(issue, addr, &wide, bytes,
                         mem::Master::kClusterCore));
  // The LSU parks the core for the whole AXI round trip; downstream
  // models (LLC, external memory) claimed their shares above, the
  // crossbar/port remainder is the park itself.
  profile::add(profile::Reason::kLsuPark,
               profile::own_share(cycle_ - issue,
                                  profile::claimed() - claimed_before));
  stats_.increment("demand_axi_loads");
  return static_cast<u32>(wide);
}

void PmcaCore::store_axi(Addr addr, u32 value, u32 bytes, Cycles issue) {
  // Posted write through the AXI port: occupancy advances, no stall —
  // so the profiler must not attribute the hidden latency either.
  const u64 wide = value;
  const profile::SuppressGuard mute;
  bus_->write(issue, addr, &wide, bytes, mem::Master::kClusterCore);
  stats_.increment("demand_axi_stores");
}

// Inlined into each load and store handler (below), where `bytes` is a
// constant: the TCDM copy becomes one move and a free bank a few
// compares (Tcdm::access is inline). Demand accesses over the AXI port
// stay out of line.
[[gnu::always_inline]] inline u32 PmcaCore::load(Addr addr, u32 bytes,
                                                 bool sign, Cycles issue) {
  ctr_loads_ += 1;
  u32 value = 0;
  if (in_tcdm(addr)) {
    HULKV_CHECK(addr + bytes <= tcdm_base_ + tcdm_size_,
                "TCDM load crosses the top of L1");
    std::memcpy(&value, tcdm_data_ + (addr - tcdm_base_), bytes);
    cycle_ = std::max(cycle_, tcdm_->access(issue, addr - tcdm_base_, bytes));
  } else {
    value = load_axi(addr, bytes, issue);
  }
  if (trace::enabled() && cycle_ > issue + kStallThreshold) {
    trace_stall(issue, cycle_ - issue, addr);
  }
  if (sign) value = static_cast<u32>(sign_extend(value, bytes * 8));
  return value;
}

[[gnu::always_inline]] inline void PmcaCore::store(Addr addr, u32 value,
                                                   u32 bytes, Cycles issue) {
  ctr_stores_ += 1;
  if (in_tcdm(addr)) {
    HULKV_CHECK(addr + bytes <= tcdm_base_ + tcdm_size_,
                "TCDM store crosses the top of L1");
    std::memcpy(tcdm_data_ + (addr - tcdm_base_), &value, bytes);
    cycle_ = std::max(cycle_, tcdm_->access(issue, addr - tcdm_base_, bytes));
  } else {
    store_axi(addr, value, bytes, issue);
  }
}

// Inline: the slice loop calls it once per retired instruction.
inline void PmcaCore::apply_hwloops() {
  // Innermost loop first (index 0). A loop fires when control falls onto
  // its end address from the body's last instruction.
  for (int l = 0; l < 2; ++l) {
    HwLoop& loop = loops_[l];
    if (loop.count == 0 || next_pc_ != loop.end) continue;
    if (loop.count > 1) {
      --loop.count;
      next_pc_ = loop.start;  // zero-overhead back edge
      ctr_hwloop_backedges_ += 1;
      return;
    }
    loop.count = 0;  // natural exit, fall through; outer loop may fire too
  }
}

bool PmcaCore::run_slice(u64 limit, u64 max_instrs) {
  HULKV_CHECK(state_ == State::kRunning, "stepping a non-running core");
  // With tracing on, every instruction is treated as shared so events
  // reach the process-global sink in exactly the per-instruction
  // scheduling order (run-ahead would reorder the sink's event stream;
  // cycles are identical either way).
  const bool lockstep = trace_ || trace::enabled();
  if (lockstep || profile::enabled()) {
    // Resolved once per slice; the unobserved loop carries none of the
    // per-retire observation code.
    return slice<true>(limit, max_instrs, lockstep,
                       profile::attach(prof_handle_, stats_.name()));
  }
  return slice<false>(limit, max_instrs, false, nullptr);
}

// The trap ops: environment calls, breakpoints, and every op the PMCA
// has no handler for. Runs with pc_ at the trapping instruction and its
// issue cycle already paid, so env handlers and error messages see the
// exact pc.
void PmcaCore::trap(const Instr& in) {
  switch (in.op) {
    case Op::kEcall:
      HULKV_CHECK(static_cast<bool>(env_),
                  "PMCA ecall without an environment handler");
      env_(*this);
      break;
    case Op::kEbreak:
      throw SimError("PMCA ebreak at pc=0x" + hex(pc_));
    default:
      throw SimError("PMCA cannot execute '" +
                     std::string(isa::mnemonic(in.op)) + "' at pc=0x" +
                     hex(pc_) + " (RV64/D instructions are host-only)");
  }
}

// ---- instruction handlers (DESIGN.md §15) ----
//
// One static handler per PMCA op, `void(PmcaCore&, const
// ThreadedInstr&)`: the only semantics of each instruction. Same ABI as
// the host table: when a handler runs, `cycle_` already includes the
// static cost (1-cycle issue + fixed latency folded into
// ThreadedInstr::cyc), `issue_cycle_` holds the pre-issue cycle,
// `next_pc_` is the sequential successor and `pc_ == t.pc`. Handlers
// perform every dynamic-cost and stat-counter side effect; control ops
// write `next_pc_` (the dispatch loop applies hardware loops and commits
// `pc_ = next_pc_` per retire).
struct ThreadedPmca {
  using TI = isa::threaded::ThreadedInstr;

  static void branch(PmcaCore& c, const TI& t, bool taken) {
    if (taken) {
      c.next_pc_ = t.pc + t.imm;
      c.cycle_ += c.config_.taken_branch_penalty;
      c.ctr_taken_branches_ += 1;
    }
  }

  static void lui(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, static_cast<u32>(t.imm));
  }
  static void auipc(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, static_cast<u32>(t.pc) + static_cast<u32>(t.imm));
  }
  static void jal(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, static_cast<u32>(t.pc) + 4);
    c.next_pc_ = t.pc + t.imm;
  }
  static void jalr(PmcaCore& c, const TI& t) {
    const u32 target = (c.x_[t.rs1] + t.imm) & ~1u;
    c.set_reg(t.rd, static_cast<u32>(t.pc) + 4);
    c.next_pc_ = target;
  }
  static void beq(PmcaCore& c, const TI& t) {
    branch(c, t, c.x_[t.rs1] == c.x_[t.rs2]);
  }
  static void bne(PmcaCore& c, const TI& t) {
    branch(c, t, c.x_[t.rs1] != c.x_[t.rs2]);
  }
  static void blt(PmcaCore& c, const TI& t) {
    branch(c, t,
           static_cast<i32>(c.x_[t.rs1]) < static_cast<i32>(c.x_[t.rs2]));
  }
  static void bge(PmcaCore& c, const TI& t) {
    branch(c, t,
           static_cast<i32>(c.x_[t.rs1]) >= static_cast<i32>(c.x_[t.rs2]));
  }
  static void bltu(PmcaCore& c, const TI& t) {
    branch(c, t, c.x_[t.rs1] < c.x_[t.rs2]);
  }
  static void bgeu(PmcaCore& c, const TI& t) {
    branch(c, t, c.x_[t.rs1] >= c.x_[t.rs2]);
  }

  static void lb(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.load(c.x_[t.rs1] + t.imm, 1, true, c.issue_cycle_));
  }
  static void lh(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.load(c.x_[t.rs1] + t.imm, 2, true, c.issue_cycle_));
  }
  static void lw(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.load(c.x_[t.rs1] + t.imm, 4, false, c.issue_cycle_));
  }
  static void lbu(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.load(c.x_[t.rs1] + t.imm, 1, false, c.issue_cycle_));
  }
  static void lhu(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.load(c.x_[t.rs1] + t.imm, 2, false, c.issue_cycle_));
  }
  static void sb(PmcaCore& c, const TI& t) {
    c.store(c.x_[t.rs1] + t.imm, c.x_[t.rs2], 1, c.issue_cycle_);
  }
  static void sh(PmcaCore& c, const TI& t) {
    c.store(c.x_[t.rs1] + t.imm, c.x_[t.rs2], 2, c.issue_cycle_);
  }
  static void sw(PmcaCore& c, const TI& t) {
    c.store(c.x_[t.rs1] + t.imm, c.x_[t.rs2], 4, c.issue_cycle_);
  }

  static void plb(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1];
    c.set_reg(t.rd, c.load(rs1, 1, true, c.issue_cycle_));
    c.set_reg(t.rs1, rs1 + t.imm);
  }
  static void plbu(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1];
    c.set_reg(t.rd, c.load(rs1, 1, false, c.issue_cycle_));
    c.set_reg(t.rs1, rs1 + t.imm);
  }
  static void plh(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1];
    c.set_reg(t.rd, c.load(rs1, 2, true, c.issue_cycle_));
    c.set_reg(t.rs1, rs1 + t.imm);
  }
  static void plhu(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1];
    c.set_reg(t.rd, c.load(rs1, 2, false, c.issue_cycle_));
    c.set_reg(t.rs1, rs1 + t.imm);
  }
  static void plw(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1];
    c.set_reg(t.rd, c.load(rs1, 4, false, c.issue_cycle_));
    c.set_reg(t.rs1, rs1 + t.imm);
  }
  static void psb(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1];
    c.store(rs1, c.x_[t.rs2], 1, c.issue_cycle_);
    c.set_reg(t.rs1, rs1 + t.imm);
  }
  static void psh(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1];
    c.store(rs1, c.x_[t.rs2], 2, c.issue_cycle_);
    c.set_reg(t.rs1, rs1 + t.imm);
  }
  static void psw(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1];
    c.store(rs1, c.x_[t.rs2], 4, c.issue_cycle_);
    c.set_reg(t.rs1, rs1 + t.imm);
  }

  static void addi(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] + t.imm);
  }
  static void slti(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, static_cast<i32>(c.x_[t.rs1]) < t.imm ? 1 : 0);
  }
  static void sltiu(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] < static_cast<u32>(t.imm) ? 1 : 0);
  }
  static void xori(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] ^ static_cast<u32>(t.imm));
  }
  static void ori(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] | static_cast<u32>(t.imm));
  }
  static void andi(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] & static_cast<u32>(t.imm));
  }
  static void slli(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] << (t.imm & 31));
  }
  static void srli(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] >> (t.imm & 31));
  }
  static void srai(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, static_cast<u32>(static_cast<i32>(c.x_[t.rs1]) >>
                                     (t.imm & 31)));
  }
  static void add(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] + c.x_[t.rs2]);
  }
  static void sub(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] - c.x_[t.rs2]);
  }
  static void sll(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] << (c.x_[t.rs2] & 31));
  }
  static void slt(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, static_cast<i32>(c.x_[t.rs1]) <
                            static_cast<i32>(c.x_[t.rs2])
                        ? 1
                        : 0);
  }
  static void sltu(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] < c.x_[t.rs2] ? 1 : 0);
  }
  static void xor_(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] ^ c.x_[t.rs2]);
  }
  static void srl(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] >> (c.x_[t.rs2] & 31));
  }
  static void sra(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, static_cast<u32>(static_cast<i32>(c.x_[t.rs1]) >>
                                     (c.x_[t.rs2] & 31)));
  }
  static void or_(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] | c.x_[t.rs2]);
  }
  static void and_(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] & c.x_[t.rs2]);
  }

  static void mul(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] * c.x_[t.rs2]);
  }
  static void mulh(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, static_cast<u32>(
                        (static_cast<i64>(static_cast<i32>(c.x_[t.rs1])) *
                         static_cast<i64>(static_cast<i32>(c.x_[t.rs2])))
                        >> 32));
  }
  static void mulhsu(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, static_cast<u32>(
                        (static_cast<i64>(static_cast<i32>(c.x_[t.rs1])) *
                         static_cast<i64>(static_cast<u64>(c.x_[t.rs2])))
                        >> 32));
  }
  static void mulhu(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, static_cast<u32>((static_cast<u64>(c.x_[t.rs1]) *
                                      static_cast<u64>(c.x_[t.rs2])) >> 32));
  }
  static void div(PmcaCore& c, const TI& t) {
    const i32 a = static_cast<i32>(c.x_[t.rs1]);
    const i32 b = static_cast<i32>(c.x_[t.rs2]);
    i32 r;
    if (b == 0) {
      r = -1;
    } else if (a == std::numeric_limits<i32>::min() && b == -1) {
      r = a;
    } else {
      r = a / b;
    }
    c.set_reg(t.rd, static_cast<u32>(r));
  }
  static void divu(PmcaCore& c, const TI& t) {
    const u32 b = c.x_[t.rs2];
    c.set_reg(t.rd, b == 0 ? ~0u : c.x_[t.rs1] / b);
  }
  static void rem(PmcaCore& c, const TI& t) {
    const i32 a = static_cast<i32>(c.x_[t.rs1]);
    const i32 b = static_cast<i32>(c.x_[t.rs2]);
    i32 r;
    if (b == 0) {
      r = a;
    } else if (a == std::numeric_limits<i32>::min() && b == -1) {
      r = 0;
    } else {
      r = a % b;
    }
    c.set_reg(t.rd, static_cast<u32>(r));
  }
  static void remu(PmcaCore& c, const TI& t) {
    const u32 b = c.x_[t.rs2];
    c.set_reg(t.rd, b == 0 ? c.x_[t.rs1] : c.x_[t.rs1] % b);
  }

  static void fence(PmcaCore&, const TI&) {}
  static void csr(PmcaCore& c, const TI& t) {
    const u16 addr = static_cast<u16>(t.imm);
    u32 value = 0;
    if (addr == isa::csr::kMhartid) {
      value = c.config_.core_id;
    } else if (addr == isa::csr::kCycle || addr == isa::csr::kMcycle) {
      value = static_cast<u32>(c.cycle_);
    } else if (addr == isa::csr::kInstret || addr == isa::csr::kMinstret) {
      value = static_cast<u32>(c.instret_);
    }
    c.set_reg(t.rd, value);
  }

  static void lp_starti(PmcaCore& c, const TI& t) {
    c.loops_[t.rd & 1].start = t.pc + t.imm;
  }
  static void lp_endi(PmcaCore& c, const TI& t) {
    c.loops_[t.rd & 1].end = t.pc + t.imm;
  }
  static void lp_count(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1];
    HULKV_CHECK(rs1 >= 1, "hardware loop count must be >= 1");
    c.loops_[t.rd & 1].count = rs1;
  }
  static void lp_counti(PmcaCore& c, const TI& t) {
    HULKV_CHECK(t.imm >= 1, "hardware loop count must be >= 1");
    c.loops_[t.rd & 1].count = static_cast<u32>(t.imm);
  }
  static void lp_setup(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1];
    HULKV_CHECK(rs1 >= 1, "hardware loop count must be >= 1");
    PmcaCore::HwLoop& loop = c.loops_[t.rd & 1];
    loop.start = t.pc + 4;
    loop.end = t.pc + t.imm;
    loop.count = rs1;
  }

  static void pmac(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rd] + c.x_[t.rs1] * c.x_[t.rs2]);
    c.ctr_mac_ops_ += 1;
  }
  static void pmsu(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rd] - c.x_[t.rs1] * c.x_[t.rs2]);
    c.ctr_mac_ops_ += 1;
  }
  static void pabs(PmcaCore& c, const TI& t) {
    const i32 v = static_cast<i32>(c.x_[t.rs1]);
    c.set_reg(t.rd, static_cast<u32>(v < 0 ? -v : v));
  }
  static void pmin(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1], rs2 = c.x_[t.rs2];
    c.set_reg(t.rd, static_cast<i32>(rs1) < static_cast<i32>(rs2) ? rs1 : rs2);
  }
  static void pmax(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1], rs2 = c.x_[t.rs2];
    c.set_reg(t.rd, static_cast<i32>(rs1) > static_cast<i32>(rs2) ? rs1 : rs2);
  }
  static void pclip(PmcaCore& c, const TI& t) {
    HULKV_CHECK(t.imm >= 1 && t.imm <= 31, "p.clip width out of range");
    c.set_reg(t.rd, static_cast<u32>(clip(static_cast<i32>(c.x_[t.rs1]),
                                          static_cast<unsigned>(t.imm))));
  }
  static void pexths(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, static_cast<u32>(sign_extend(c.x_[t.rs1] & 0xFFFF, 16)));
  }
  static void pexthz(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] & 0xFFFFu);
  }
  static void pextbs(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, static_cast<u32>(sign_extend(c.x_[t.rs1] & 0xFF, 8)));
  }
  static void pextbz(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] & 0xFFu);
  }

  template <Op kOp>
  static void pv_b(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1], rs2 = c.x_[t.rs2];
    u32 out = 0;
    for (int lane = 0; lane < 4; ++lane) {
      const i8 a = static_cast<i8>(rs1 >> (8 * lane));
      const i8 b = static_cast<i8>(rs2 >> (8 * lane));
      i32 r = 0;
      if constexpr (kOp == Op::kPvAddB) {
        r = static_cast<i8>(a + b);
      } else if constexpr (kOp == Op::kPvSubB) {
        r = static_cast<i8>(a - b);
      } else if constexpr (kOp == Op::kPvMinB) {
        r = std::min(a, b);
      } else {
        r = std::max(a, b);
      }
      out |= (static_cast<u32>(r) & 0xFFu) << (8 * lane);
    }
    c.set_reg(t.rd, out);
    c.ctr_simd_ops_ += 1;
  }
  template <Op kOp>
  static void pv_h(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1], rs2 = c.x_[t.rs2];
    u32 out = 0;
    for (int lane = 0; lane < 2; ++lane) {
      const i16 a = static_cast<i16>(rs1 >> (16 * lane));
      const i16 b = static_cast<i16>(rs2 >> (16 * lane));
      i32 r = 0;
      if constexpr (kOp == Op::kPvAddH) {
        r = static_cast<i16>(a + b);
      } else if constexpr (kOp == Op::kPvSubH) {
        r = static_cast<i16>(a - b);
      } else if constexpr (kOp == Op::kPvMinH) {
        r = std::min(a, b);
      } else if constexpr (kOp == Op::kPvMaxH) {
        r = std::max(a, b);
      } else {
        r = static_cast<i16>(a >> (rs2 & 15));
      }
      out |= (static_cast<u32>(r) & 0xFFFFu) << (16 * lane);
    }
    c.set_reg(t.rd, out);
    c.ctr_simd_ops_ += 1;
  }
  template <bool kAccumulate>
  static void pv_dotsp_b(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1], rs2 = c.x_[t.rs2];
    i32 acc = kAccumulate ? static_cast<i32>(c.x_[t.rd]) : 0;
    for (int lane = 0; lane < 4; ++lane) {
      acc += static_cast<i32>(static_cast<i8>(rs1 >> (8 * lane))) *
             static_cast<i32>(static_cast<i8>(rs2 >> (8 * lane)));
    }
    c.set_reg(t.rd, static_cast<u32>(acc));
    c.ctr_simd_ops_ += 1;
    c.ctr_mac_ops_ += 4;
  }
  template <bool kAccumulate>
  static void pv_dotsp_h(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1], rs2 = c.x_[t.rs2];
    i32 acc = kAccumulate ? static_cast<i32>(c.x_[t.rd]) : 0;
    for (int lane = 0; lane < 2; ++lane) {
      acc += static_cast<i32>(static_cast<i16>(rs1 >> (16 * lane))) *
             static_cast<i32>(static_cast<i16>(rs2 >> (16 * lane)));
    }
    c.set_reg(t.rd, static_cast<u32>(acc));
    c.ctr_simd_ops_ += 1;
    c.ctr_mac_ops_ += 2;
  }
  static void pv_sdotsp_b_mem(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1], rs2 = c.x_[t.rs2];
    const u32 vec = c.load(rs1, 4, false, c.issue_cycle_);
    i32 acc = static_cast<i32>(c.x_[t.rd]);
    for (int lane = 0; lane < 4; ++lane) {
      acc += static_cast<i32>(static_cast<i8>(vec >> (8 * lane))) *
             static_cast<i32>(static_cast<i8>(rs2 >> (8 * lane)));
    }
    c.set_reg(t.rd, acc);
    c.set_reg(t.rs1, rs1 + 4);
    c.ctr_simd_ops_ += 1;
    c.ctr_mac_ops_ += 4;
  }
  static void pv_sdotsp_h_mem(PmcaCore& c, const TI& t) {
    const u32 rs1 = c.x_[t.rs1], rs2 = c.x_[t.rs2];
    const u32 vec = c.load(rs1, 4, false, c.issue_cycle_);
    i32 acc = static_cast<i32>(c.x_[t.rd]);
    for (int lane = 0; lane < 2; ++lane) {
      acc += static_cast<i32>(static_cast<i16>(vec >> (16 * lane))) *
             static_cast<i32>(static_cast<i16>(rs2 >> (16 * lane)));
    }
    c.set_reg(t.rd, acc);
    c.set_reg(t.rs1, rs1 + 4);
    c.ctr_simd_ops_ += 1;
    c.ctr_mac_ops_ += 2;
  }

  static void flw(PmcaCore& c, const TI& t) {
    c.set_freg(t.rd, c.load(c.x_[t.rs1] + t.imm, 4, false, c.issue_cycle_));
  }
  static void fsw(PmcaCore& c, const TI& t) {
    c.store(c.x_[t.rs1] + t.imm, c.f_[t.rs2], 4, c.issue_cycle_);
  }
  static void fadds(PmcaCore& c, const TI& t) {
    c.set_freg(t.rd, raw32(f32(c.f_[t.rs1]) + f32(c.f_[t.rs2])));
  }
  static void fsubs(PmcaCore& c, const TI& t) {
    c.set_freg(t.rd, raw32(f32(c.f_[t.rs1]) - f32(c.f_[t.rs2])));
  }
  static void fmuls(PmcaCore& c, const TI& t) {
    c.set_freg(t.rd, raw32(f32(c.f_[t.rs1]) * f32(c.f_[t.rs2])));
  }
  static void fdivs(PmcaCore& c, const TI& t) {
    c.set_freg(t.rd, raw32(f32(c.f_[t.rs1]) / f32(c.f_[t.rs2])));
  }
  static void fsqrts(PmcaCore& c, const TI& t) {
    c.set_freg(t.rd, raw32(std::sqrt(f32(c.f_[t.rs1]))));
  }
  static void fmadds(PmcaCore& c, const TI& t) {
    c.set_freg(t.rd, raw32(std::fma(f32(c.f_[t.rs1]), f32(c.f_[t.rs2]),
                                    f32(c.f_[t.rs3]))));
    c.ctr_mac_ops_ += 1;
  }
  static void fmsubs(PmcaCore& c, const TI& t) {
    c.set_freg(t.rd, raw32(std::fma(f32(c.f_[t.rs1]), f32(c.f_[t.rs2]),
                                    -f32(c.f_[t.rs3]))));
    c.ctr_mac_ops_ += 1;
  }
  static void fsgnjs(PmcaCore& c, const TI& t) {
    c.set_freg(t.rd,
               (c.f_[t.rs1] & 0x7FFFFFFFu) | (c.f_[t.rs2] & 0x80000000u));
  }
  static void fsgnjns(PmcaCore& c, const TI& t) {
    c.set_freg(t.rd,
               (c.f_[t.rs1] & 0x7FFFFFFFu) | (~c.f_[t.rs2] & 0x80000000u));
  }
  static void fsgnjxs(PmcaCore& c, const TI& t) {
    c.set_freg(t.rd, c.f_[t.rs1] ^ (c.f_[t.rs2] & 0x80000000u));
  }
  static void fmins(PmcaCore& c, const TI& t) {
    c.set_freg(t.rd, raw32(std::fmin(f32(c.f_[t.rs1]), f32(c.f_[t.rs2]))));
  }
  static void fmaxs(PmcaCore& c, const TI& t) {
    c.set_freg(t.rd, raw32(std::fmax(f32(c.f_[t.rs1]), f32(c.f_[t.rs2]))));
  }
  static void feqs(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, f32(c.f_[t.rs1]) == f32(c.f_[t.rs2]) ? 1 : 0);
  }
  static void flts(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, f32(c.f_[t.rs1]) < f32(c.f_[t.rs2]) ? 1 : 0);
  }
  static void fles(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, f32(c.f_[t.rs1]) <= f32(c.f_[t.rs2]) ? 1 : 0);
  }
  static void fcvtws(PmcaCore& c, const TI& t) {
    const float v = f32(c.f_[t.rs1]);
    i32 r;
    if (std::isnan(v)) {
      r = std::numeric_limits<i32>::max();
    } else if (v >= 2147483647.0f) {
      r = std::numeric_limits<i32>::max();
    } else if (v <= -2147483648.0f) {
      r = std::numeric_limits<i32>::min();
    } else {
      r = static_cast<i32>(std::nearbyintf(v));
    }
    c.set_reg(t.rd, static_cast<u32>(r));
  }
  static void fcvtsw(PmcaCore& c, const TI& t) {
    c.set_freg(t.rd,
               raw32(static_cast<float>(static_cast<i32>(c.x_[t.rs1]))));
  }
  static void fmvxw(PmcaCore& c, const TI& t) {
    c.set_reg(t.rd, c.f_[t.rs1]);
  }
  static void fmvwx(PmcaCore& c, const TI& t) {
    c.set_freg(t.rd, c.x_[t.rs1]);
  }

  static void vfaddh(PmcaCore& c, const TI& t) {
    c.set_freg(t.rd, fp16_lanes(c.f_[t.rs1], c.f_[t.rs2],
                                [](float a, float b) { return a + b; }));
    c.ctr_simd_ops_ += 1;
  }
  static void vfsubh(PmcaCore& c, const TI& t) {
    c.set_freg(t.rd, fp16_lanes(c.f_[t.rs1], c.f_[t.rs2],
                                [](float a, float b) { return a - b; }));
    c.ctr_simd_ops_ += 1;
  }
  static void vfmulh(PmcaCore& c, const TI& t) {
    c.set_freg(t.rd, fp16_lanes(c.f_[t.rs1], c.f_[t.rs2],
                                [](float a, float b) { return a * b; }));
    c.ctr_simd_ops_ += 1;
  }
  static void vfmach(PmcaCore& c, const TI& t) {
    u32 out = 0;
    for (int lane = 0; lane < 2; ++lane) {
      const float a =
          half_bits_to_float(static_cast<u16>(c.f_[t.rs1] >> (16 * lane)));
      const float b =
          half_bits_to_float(static_cast<u16>(c.f_[t.rs2] >> (16 * lane)));
      const float d =
          half_bits_to_float(static_cast<u16>(c.f_[t.rd] >> (16 * lane)));
      out |= static_cast<u32>(float_to_half_bits(std::fma(a, b, d)))
             << (16 * lane);
    }
    c.set_freg(t.rd, out);
    c.ctr_simd_ops_ += 1;
    c.ctr_mac_ops_ += 2;
  }
  static void vfdotpexsh(PmcaCore& c, const TI& t) {
    float acc = f32(c.f_[t.rd]);
    for (int lane = 0; lane < 2; ++lane) {
      const float a =
          half_bits_to_float(static_cast<u16>(c.f_[t.rs1] >> (16 * lane)));
      const float b =
          half_bits_to_float(static_cast<u16>(c.f_[t.rs2] >> (16 * lane)));
      acc = std::fma(a, b, acc);
    }
    c.set_freg(t.rd, raw32(acc));
    c.ctr_simd_ops_ += 1;
    c.ctr_mac_ops_ += 2;
  }
  static void vfcvths(PmcaCore& c, const TI& t) {
    const u16 lo = float_to_half_bits(f32(c.f_[t.rs1]));
    const u16 hi = float_to_half_bits(f32(c.f_[t.rs2]));
    c.set_freg(t.rd, static_cast<u32>(lo) | (static_cast<u32>(hi) << 16));
  }
};

isa::threaded::HandlerInfo threaded_resolve(isa::Op op,
                                            const PmcaCoreConfig& cfg) {
  using isa::threaded::AnyFn;
  using isa::threaded::HandlerInfo;
  using H = ThreadedPmca;
  const auto plain = [](void (*fn)(PmcaCore&, const ThreadedPmca::TI&)) {
    return HandlerInfo{reinterpret_cast<AnyFn>(fn), 1};
  };
  const auto lat = [](void (*fn)(PmcaCore&, const ThreadedPmca::TI&),
                      Cycles latency) {
    return HandlerInfo{reinterpret_cast<AnyFn>(fn),
                       static_cast<u32>(1 + latency)};
  };
  switch (op) {
    case Op::kLui: return plain(&H::lui);
    case Op::kAuipc: return plain(&H::auipc);
    case Op::kJal: return lat(&H::jal, cfg.jump_penalty);
    case Op::kJalr: return lat(&H::jalr, cfg.jump_penalty);
    case Op::kBeq: return plain(&H::beq);
    case Op::kBne: return plain(&H::bne);
    case Op::kBlt: return plain(&H::blt);
    case Op::kBge: return plain(&H::bge);
    case Op::kBltu: return plain(&H::bltu);
    case Op::kBgeu: return plain(&H::bgeu);
    case Op::kLb: return plain(&H::lb);
    case Op::kLh: return plain(&H::lh);
    case Op::kLw: return plain(&H::lw);
    case Op::kLbu: return plain(&H::lbu);
    case Op::kLhu: return plain(&H::lhu);
    case Op::kSb: return plain(&H::sb);
    case Op::kSh: return plain(&H::sh);
    case Op::kSw: return plain(&H::sw);
    case Op::kPLbPost: return plain(&H::plb);
    case Op::kPLbuPost: return plain(&H::plbu);
    case Op::kPLhPost: return plain(&H::plh);
    case Op::kPLhuPost: return plain(&H::plhu);
    case Op::kPLwPost: return plain(&H::plw);
    case Op::kPSbPost: return plain(&H::psb);
    case Op::kPShPost: return plain(&H::psh);
    case Op::kPSwPost: return plain(&H::psw);
    case Op::kAddi: return plain(&H::addi);
    case Op::kSlti: return plain(&H::slti);
    case Op::kSltiu: return plain(&H::sltiu);
    case Op::kXori: return plain(&H::xori);
    case Op::kOri: return plain(&H::ori);
    case Op::kAndi: return plain(&H::andi);
    case Op::kSlli: return plain(&H::slli);
    case Op::kSrli: return plain(&H::srli);
    case Op::kSrai: return plain(&H::srai);
    case Op::kAdd: return plain(&H::add);
    case Op::kSub: return plain(&H::sub);
    case Op::kSll: return plain(&H::sll);
    case Op::kSlt: return plain(&H::slt);
    case Op::kSltu: return plain(&H::sltu);
    case Op::kXor: return plain(&H::xor_);
    case Op::kSrl: return plain(&H::srl);
    case Op::kSra: return plain(&H::sra);
    case Op::kOr: return plain(&H::or_);
    case Op::kAnd: return plain(&H::and_);
    case Op::kMul: return lat(&H::mul, cfg.mul_latency);
    case Op::kMulh: return lat(&H::mulh, cfg.mul_latency);
    case Op::kMulhsu: return lat(&H::mulhsu, cfg.mul_latency);
    case Op::kMulhu: return lat(&H::mulhu, cfg.mul_latency);
    case Op::kDiv: return lat(&H::div, cfg.div_latency);
    case Op::kDivu: return lat(&H::divu, cfg.div_latency);
    case Op::kRem: return lat(&H::rem, cfg.div_latency);
    case Op::kRemu: return lat(&H::remu, cfg.div_latency);
    case Op::kFence: return plain(&H::fence);
    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc:
    case Op::kCsrrwi:
    case Op::kCsrrsi:
    case Op::kCsrrci: return plain(&H::csr);
    case Op::kLpStarti: return plain(&H::lp_starti);
    case Op::kLpEndi: return plain(&H::lp_endi);
    case Op::kLpCount: return plain(&H::lp_count);
    case Op::kLpCounti: return plain(&H::lp_counti);
    case Op::kLpSetup: return plain(&H::lp_setup);
    case Op::kPMac: return lat(&H::pmac, cfg.mul_latency);
    case Op::kPMsu: return lat(&H::pmsu, cfg.mul_latency);
    case Op::kPAbs: return plain(&H::pabs);
    case Op::kPMin: return plain(&H::pmin);
    case Op::kPMax: return plain(&H::pmax);
    case Op::kPClip: return plain(&H::pclip);
    case Op::kPExths: return plain(&H::pexths);
    case Op::kPExthz: return plain(&H::pexthz);
    case Op::kPExtbs: return plain(&H::pextbs);
    case Op::kPExtbz: return plain(&H::pextbz);
    case Op::kPvAddB: return plain(&H::pv_b<Op::kPvAddB>);
    case Op::kPvSubB: return plain(&H::pv_b<Op::kPvSubB>);
    case Op::kPvMinB: return plain(&H::pv_b<Op::kPvMinB>);
    case Op::kPvMaxB: return plain(&H::pv_b<Op::kPvMaxB>);
    case Op::kPvAddH: return plain(&H::pv_h<Op::kPvAddH>);
    case Op::kPvSubH: return plain(&H::pv_h<Op::kPvSubH>);
    case Op::kPvMinH: return plain(&H::pv_h<Op::kPvMinH>);
    case Op::kPvMaxH: return plain(&H::pv_h<Op::kPvMaxH>);
    case Op::kPvSraH: return plain(&H::pv_h<Op::kPvSraH>);
    case Op::kPvDotspB: return lat(&H::pv_dotsp_b<false>, cfg.mul_latency);
    case Op::kPvSdotspB: return lat(&H::pv_dotsp_b<true>, cfg.mul_latency);
    case Op::kPvDotspH: return lat(&H::pv_dotsp_h<false>, cfg.mul_latency);
    case Op::kPvSdotspH: return lat(&H::pv_dotsp_h<true>, cfg.mul_latency);
    // The fused MAC-&-load pair is LSU-timed only: no extra multiplier
    // latency.
    case Op::kPvSdotspBMem: return plain(&H::pv_sdotsp_b_mem);
    case Op::kPvSdotspHMem: return plain(&H::pv_sdotsp_h_mem);
    case Op::kFlw: return plain(&H::flw);
    case Op::kFsw: return plain(&H::fsw);
    case Op::kFaddS: return lat(&H::fadds, cfg.fpu_latency);
    case Op::kFsubS: return lat(&H::fsubs, cfg.fpu_latency);
    case Op::kFmulS: return lat(&H::fmuls, cfg.fpu_latency);
    // fdiv/fsqrt cost a fixed 12 cycles, not a config latency.
    case Op::kFdivS: return lat(&H::fdivs, 12);
    case Op::kFsqrtS: return lat(&H::fsqrts, 12);
    case Op::kFmaddS: return lat(&H::fmadds, cfg.fpu_latency);
    case Op::kFmsubS: return lat(&H::fmsubs, cfg.fpu_latency);
    case Op::kFsgnjS: return plain(&H::fsgnjs);
    case Op::kFsgnjnS: return plain(&H::fsgnjns);
    case Op::kFsgnjxS: return plain(&H::fsgnjxs);
    case Op::kFminS: return plain(&H::fmins);
    case Op::kFmaxS: return plain(&H::fmaxs);
    case Op::kFeqS: return plain(&H::feqs);
    case Op::kFltS: return plain(&H::flts);
    case Op::kFleS: return plain(&H::fles);
    case Op::kFcvtWS: return lat(&H::fcvtws, cfg.fpu_latency);
    case Op::kFcvtSW: return lat(&H::fcvtsw, cfg.fpu_latency);
    case Op::kFmvXW: return plain(&H::fmvxw);
    case Op::kFmvWX: return plain(&H::fmvwx);
    case Op::kVfaddH: return lat(&H::vfaddh, cfg.fpu_latency);
    case Op::kVfsubH: return lat(&H::vfsubh, cfg.fpu_latency);
    case Op::kVfmulH: return lat(&H::vfmulh, cfg.fpu_latency);
    case Op::kVfmacH: return lat(&H::vfmach, cfg.fpu_latency);
    case Op::kVfdotpexSH: return lat(&H::vfdotpexsh, cfg.fpu_latency);
    case Op::kVfcvtHS: return lat(&H::vfcvths, cfg.fpu_latency);
    default:
      // ecall/ebreak, kIllegal, kWfi and the host-only RV64/D ops: trap
      // ops, retired by PmcaCore::trap() at their exact pc.
      return HandlerInfo{nullptr, 1};
  }
}

// Slice loop. Per-retire state — issue_cycle_, next_pc_, hardware-loop
// application, pc_ commit — is kept per instruction (all of it is
// serialized, digest-relevant state). The run-ahead horizon check is
// driven by lowered flags: kFlagShared mirrors the block's shared_mask
// bit, and the new-fetch-line condition comes from the line flags plus
// a dynamic private_hit probe.
//
// The observed instantiation adds, per retired instruction, the
// profiler bracket, the set_trace disassembly log and the trace commit
// batch; under tracing (lockstep) every instruction counts as shared.
// It never resumes from the cursor: it probes the block cache at every
// slice entry, so the profiler keys a slice that starts at a park point
// by the suffix block starting there.
template <bool kObserved>
bool PmcaCore::slice(u64 limit, u64 max_instrs, bool lockstep,
                     profile::CoreProfile* prof) {
  using PmcaFn = void (*)(PmcaCore&, const isa::threaded::ThreadedInstr&);
  if constexpr (kObserved) {
    profile::detail::g_observed_entries.fetch_add(1,
                                                  std::memory_order_relaxed);
  }
  u64 executed = 0;
  // Resume in front of the instruction the last slice stopped at: no
  // block probe, and no suffix block translated at a mid-block pc. The
  // generation proves the block (and its lowering) is still current.
  // Skipping the entry kFlagLineCheck of a suffix block is exact because
  // fetch_line_ still holds the line of the instruction before: only
  // this loop moved pc_ or fetch_line_ since the park (every other
  // writer clears the cursor). A cursor is good for one slice only.
  const ResumeCursor resume = cursor_;
  cursor_.block = nullptr;
  isa::DecodedBlock* block = nullptr;
  size_t i = 0;
  if (!kObserved && resume.block != nullptr &&
      resume.generation == blocks_.generation() &&
      resume.block->threaded.code[resume.index].pc == pc_) {
    block = resume.block;
    i = resume.index;
  }
  const auto park = [&](size_t index) {
    cursor_ = {block, static_cast<u32>(index), blocks_.generation()};
  };
  while (true) {
    if (block == nullptr) {
      block = &blocks_.block_at(pc_);
      if (block->threaded.generation != block->generation) {
        const telemetry::Span span(telemetry::SpanPhase::kThreadedLower);
        isa::threaded::lower(
            *block, 32, /*want_shared=*/true,
            [](isa::Op op, const void* ctx) {
              return threaded_resolve(
                  op, *static_cast<const PmcaCoreConfig*>(ctx));
            },
            &config_, &block->threaded);
      }
      i = 0;
    }
    const size_t count = block->threaded.code.size();
    const isa::threaded::ThreadedInstr* code = block->threaded.code.data();
    for (; i < count; ++i) {
      const isa::threaded::ThreadedInstr& t = code[i];
      // Loop invariant: pc_ == t.pc (established by the block probe or
      // the cursor check for the first instruction and by the
      // sequential-pc break below after it), so a yield or a trap here
      // happens at exactly this instruction.
      bool newline = false;
      if ((t.flags & isa::threaded::kFlagLineCheck) != 0) {
        newline = align_down(t.pc, 32) != fetch_line_;
      } else if ((t.flags & isa::threaded::kFlagLineEntry) != 0) {
        newline = true;  // statically a new line within the block
      }
      bool shared = (t.flags & isa::threaded::kFlagShared) != 0 ||
                    (newline && !icache_->private_hit(config_.core_id, t.pc));
      if constexpr (kObserved) shared = shared || lockstep;
      if (shared && at_limit(limit)) {
        park(i);
        return true;  // yield before executing: the runner-up goes next
      }
      if constexpr (kObserved) {
        if (prof != nullptr) prof->begin_instr(cycle_);
      }
      if (newline) {
        fetch_line_ = align_down(t.pc, 32);
        cycle_ = icache_->fetch(config_.core_id, cycle_, t.pc);
      }
      if constexpr (kObserved) log_instr(block->instrs[i]);
      next_pc_ = t.pc + 4;
      issue_cycle_ = cycle_;
      cycle_ += t.cyc;
      if ((t.flags & isa::threaded::kFlagTrap) != 0) {
        // Trap: only ecall returns (the other trap ops throw). It ends
        // the slice: an envcall may have woken other cores, so the
        // ready set changed under the scheduler; exit and barrier stop
        // this core.
        trap(block->instrs[i]);
        ++instret_;
        if constexpr (kObserved) observe_retire(prof, *block, i);
        if (state_ == State::kRunning || state_ == State::kBlocked) {
          apply_hwloops();
          pc_ = next_pc_;
        }
        return false;
      }
      reinterpret_cast<PmcaFn>(t.fn)(*this, t);
      ++instret_;
      ++executed;
      if constexpr (kObserved) observe_retire(prof, *block, i);
      // Handlers never change the run state (ecall is a trap op), so
      // hardware loops and the pc commit are unconditional.
      apply_hwloops();
      pc_ = next_pc_;
      const bool fell_through = pc_ == t.pc + 4;
      if (executed >= max_instrs) {
        // A cursor but not a park: the key may still be below the limit.
        if (fell_through && i + 1 < count) park(i + 1);
        return false;
      }
      if (!fell_through) break;  // taken branch or hw-loop back edge
    }
    block = nullptr;
  }
}

inline void PmcaCore::log_instr(const Instr& in) const {
  if (trace_) {
    log(LogLevel::kTrace, stats_.name(), "cyc=", cycle_, " pc=0x", std::hex,
        pc_, std::dec, "  ", isa::disasm(in));
  }
}

inline void PmcaCore::observe_retire(profile::CoreProfile* prof,
                                     const isa::DecodedBlock& block,
                                     size_t index) {
  if (prof != nullptr) prof->end_instr(block, index, cycle_);
  if (trace::enabled()) trace_commit();
}

void PmcaCore::serialize(snapshot::Archive& ar) {
  ar.bytes(x_, sizeof(x_));
  ar.bytes(f_, sizeof(f_));
  ar.pod(pc_);
  ar.pod(next_pc_);
  ar.pod(cycle_);
  ar.pod(issue_cycle_);
  ar.pod(instret_);
  u32 state = static_cast<u32>(state_);
  ar.pod(state);
  if (ar.loading()) state_ = static_cast<State>(state);
  // Field by field: HwLoop has padding bytes.
  for (HwLoop& loop : loops_) {
    ar.pod(loop.start);
    ar.pod(loop.end);
    ar.pod(loop.count);
  }
  ar.pod(fetch_line_);
  ar.pod(pending_commits_);
  stats_.serialize(ar);
  if (ar.loading()) {
    blocks_.invalidate();
    cursor_ = {};
  }
}

}  // namespace hulkv::cluster
