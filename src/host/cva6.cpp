#include "host/cva6.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/bitutil.hpp"
#include "common/hex.hpp"
#include "common/log.hpp"
#include "isa/disasm.hpp"
#include "telemetry/telemetry.hpp"

namespace hulkv::host {

using isa::Instr;
using isa::Op;

namespace {

/// Tracing thresholds: commits are batched (one counter event per
/// kCommitBatchSize retired instructions); loads stalling longer than
/// kStallThreshold cycles (cache misses reaching external memory) are
/// recorded individually.
constexpr u32 kCommitBatchSize = 1024;
constexpr Cycles kStallThreshold = 16;

float as_f32(u64 raw) { return std::bit_cast<float>(static_cast<u32>(raw)); }
u64 boxed(float v) {
  return 0xFFFFFFFF00000000ull | std::bit_cast<u32>(v);
}
double as_f64(u64 raw) { return std::bit_cast<double>(raw); }
u64 raw64(double v) { return std::bit_cast<u64>(v); }

i32 cvt_f_to_i32(double v) {
  if (std::isnan(v)) return std::numeric_limits<i32>::max();
  if (v >= 2147483647.0) return std::numeric_limits<i32>::max();
  if (v <= -2147483648.0) return std::numeric_limits<i32>::min();
  return static_cast<i32>(std::nearbyint(v));
}

i64 cvt_f_to_i64(double v) {
  if (std::isnan(v)) return std::numeric_limits<i64>::max();
  if (v >= 9.2233720368547758e18) return std::numeric_limits<i64>::max();
  if (v <= -9.2233720368547758e18) return std::numeric_limits<i64>::min();
  return static_cast<i64>(std::nearbyint(v));
}

}  // namespace

Cva6Core::Cva6Core(const Cva6Config& config, mem::SocBus* bus)
    : config_(config),
      bus_(bus),
      dram_(bus->dram_store()),
      icache_(config.icache, bus->dram_timing()),
      dcache_(config.dcache, bus->dram_timing()),
      stats_("cva6"),
      ctr_loads_(stats_.counter("loads")),
      ctr_stores_(stats_.counter("stores")),
      ctr_taken_branches_(stats_.counter("taken_branches")),
      ctr_branch_mispredicts_(stats_.counter("branch_mispredicts")),
      blocks_(
          [bus](Addr pc) {
            u32 word = 0;
            bus->read_functional(pc, &word, 4);
            return word;
          },
          {.resolve =
               [](Op op, const void* ctx) {
                 return threaded_resolve(
                     op, *static_cast<const Cva6Config*>(ctx));
               },
           .ctx = &config_,
           .line_bytes = config.icache.line_bytes,
           .want_shared = false}) {
  HULKV_CHECK(bus != nullptr, "core needs a bus");
  HULKV_CHECK(bus->dram_timing() != nullptr,
              "attach external memory to the bus before building the core");
  HULKV_CHECK(dram_ != nullptr,
              "attach external memory to the bus before building the core");
  if (config.enable_mmu) {
    // Page-table walks go through the L1D path, so PTE lines are cached
    // and walk cost scales with the memory configuration.
    const auto pte_reader = [this](Cycles now, Addr pte_addr) {
      return dcache_.access(now, pte_addr, 8, /*is_write=*/false);
    };
    itlb_ = std::make_unique<Tlb>(config.tlb, pte_reader);
    dtlb_ = std::make_unique<Tlb>(config.tlb, pte_reader);
  }
  pc_ = config.boot_pc;
}

void Cva6Core::advance_to(Cycles cycle) {
  if (cycle > cycle_) cycle_ = cycle;
}

void Cva6Core::tlb_walk(Tlb& tlb, Addr addr) {
  // The whole walk — including its PTE reads through the L1D path — is
  // one stall to the profiler, so nested attribution is muted.
  const Cycles walk_start = cycle_;
  {
    const profile::SuppressGuard mute;
    cycle_ = tlb.translate(cycle_, addr);
  }
  profile::add(profile::Reason::kHostTlbWalk, cycle_ - walk_start);
}

void Cva6Core::fetch_new_line(Addr pc) {
  fetch_line_ = align_down(pc, config_.icache.line_bytes);
  if (itlb_ && dram_cached(pc)) tlb_walk(*itlb_, pc);
  cycle_ = icache_.access(cycle_, pc, 4, /*is_write=*/false);
}

// Inlined into each load and store handler (below), where `bytes` is a
// constant: the backing-store copy becomes one move and an L1 hit a few
// compares (CacheModel::access is inline).
[[gnu::always_inline]] inline u64 Cva6Core::load(Addr addr, u32 bytes,
                                                 bool sign) {
  u64 value = 0;
  ctr_loads_ += 1;
  const Cycles issue = cycle_;
  if (dram_cached(addr)) {
    if (dtlb_) tlb_walk(*dtlb_, addr);
    if (addr + bytes <= mem::map::kDramBase + mem::map::kDramSize) {
      dram_->read(addr, &value, bytes);  // page-pointer fast path
    } else {
      bus_->read_functional(addr, &value, bytes);  // out of range: faults
    }
    cycle_ = dcache_.access(cycle_, addr, bytes, /*is_write=*/false);
  } else {
    const u64 claimed_before = profile::claimed();
    cycle_ = bus_->read(cycle_, addr, &value, bytes, mem::Master::kHost);
    // Crossbar + target latency beyond what instrumented models (LLC,
    // external memory) already claimed: the uncached-read stall.
    profile::add(profile::Reason::kUncachedBus,
                 profile::own_share(cycle_ - issue,
                                    profile::claimed() - claimed_before));
  }
  if (trace::enabled() && cycle_ > issue + kStallThreshold) {
    auto& sink = trace::sink();
    sink.instant(sink.resolve(trace_track_, stats_.name()),
                 trace::Ev::kStall, issue, cycle_ - issue, addr);
  }
  if (sign) value = sign_extend(value, bytes * 8);
  return value;
}

[[gnu::always_inline]] inline void Cva6Core::store(Addr addr, u64 value,
                                                   u32 bytes) {
  ctr_stores_ += 1;
  if (dram_cached(addr)) {
    if (dtlb_) tlb_walk(*dtlb_, addr);
    if (addr + bytes <= mem::map::kDramBase + mem::map::kDramSize) {
      dram_->write(addr, &value, bytes);  // page-pointer fast path
    } else {
      bus_->write_functional(addr, &value, bytes);  // out of range: faults
    }
    // Write-through store buffer: downstream occupancy advances, the core
    // does not stall (CacheModel hides the downstream latency) — so the
    // profiler must not attribute the hidden latency either.
    const profile::SuppressGuard mute;
    dcache_.access(cycle_, addr, bytes, /*is_write=*/true);
  } else {
    // Uncached stores post through the crossbar; the AXI write buffer
    // hides the target latency from the core.
    const profile::SuppressGuard mute;
    bus_->write(cycle_, addr, &value, bytes, mem::Master::kHost);
  }
}

u64 Cva6Core::csr_read(u16 csr) const {
  switch (csr) {
    case isa::csr::kCycle:
    case isa::csr::kMcycle:
      return cycle_;
    case isa::csr::kInstret:
    case isa::csr::kMinstret:
      return instret_;
    case isa::csr::kMhartid:
      return 0;
    default:
      return 0;
  }
}

void Cva6Core::trace_commit() {
  if (++pending_commits_ < kCommitBatchSize) return;
  auto& sink = trace::sink();
  sink.counter(sink.resolve(trace_track_, stats_.name()),
               trace::Ev::kCommitBatch, cycle_, pending_commits_);
  pending_commits_ = 0;
}

Cva6Core::RunResult Cva6Core::run(u64 max_instructions) {
  // One host-dispatch telemetry span per run() chunk — outside the
  // dispatch loop, so the disabled-mode loop body is untouched.
  const telemetry::Span span(telemetry::SpanPhase::kHostDispatch);
  const Cycles start_cycle = cycle_;
  const u64 start_instret = instret_;
  exited_ = false;

  // The observed instantiation brackets every retired instruction for
  // the profiler and the tracers; the flag is resolved once per run():
  // enabling or disabling observation between runs is supported, mid-run
  // is not. run()'s default (unbounded) budget is the hot case; the
  // bounded variant (checkpointed runs) keeps the per-block budget
  // arithmetic.
  profile::CoreProfile* prof = profile::attach(prof_handle_, stats_.name());
  const bool bounded = max_instructions != UINT64_MAX;
  if (prof != nullptr || trace_ || trace::enabled()) {
    if (bounded) {
      dispatch<true, true>(max_instructions, start_instret, prof);
    } else {
      dispatch<true, false>(max_instructions, start_instret, prof);
    }
  } else if (bounded) {
    dispatch<false, true>(max_instructions, start_instret, nullptr);
  } else {
    dispatch<false, false>(max_instructions, start_instret, nullptr);
  }

  stats_.set("cycles", cycle_);
  stats_.set("instret", instret_);
  if (trace::enabled()) {
    // Close the run interval and flush the commit remainder so the
    // trace's commit totals equal instret exactly.
    auto& sink = trace::sink();
    const u32 track = sink.resolve(trace_track_, stats_.name());
    if (pending_commits_ > 0) {
      sink.counter(track, trace::Ev::kCommitBatch, cycle_, pending_commits_);
      pending_commits_ = 0;
    }
    sink.complete(track, trace::Ev::kRun, start_cycle, cycle_,
                  instret_ - start_instret);
  }
  return {cycle_ - start_cycle, instret_ - start_instret, exit_code_,
          exited_};
}

// The trap ops: environment calls, breakpoints, sleep, and every op the
// host has no handler for. Runs with pc_ at the trapping instruction and
// its issue cycle already paid, so syscall handlers and error messages
// see the exact pc.
void Cva6Core::trap(const Instr& in) {
  switch (in.op) {
    case Op::kEcall: {
      const u64 num = x_[isa::reg::a7];
      if (num == 93) {  // exit
        exited_ = true;
        exit_code_ = x_[isa::reg::a0];
      } else if (num == 64) {  // write(buf = a0, len = a1)
        std::string text(x_[isa::reg::a1], '\0');
        bus_->read_functional(x_[isa::reg::a0], text.data(), text.size());
        std::fwrite(text.data(), 1, text.size(), stdout);
      } else if (syscall_) {
        if (syscall_(*this) == SyscallAction::kExit) exited_ = true;
      } else {
        throw SimError("unhandled ecall, a7=" + std::to_string(num));
      }
      break;
    }
    case Op::kEbreak:
      throw SimError("ebreak executed at pc=0x" + hex(pc_));
    case Op::kWfi:
      if (wfi_) {
        const Cycles sleep_start = cycle_;
        advance_to(wfi_(cycle_));
        profile::add(profile::Reason::kHostWfi, cycle_ - sleep_start);
      }
      break;
    default:
      throw SimError("CVA6 cannot execute '" +
                     std::string(isa::mnemonic(in.op)) + "' at pc=0x" +
                     hex(pc_) + " (Xpulp extensions are PMCA-only)");
  }
}

// ---- instruction handlers (DESIGN.md §15) ----
//
// One static handler per host op, `void(Cva6Core&, const ThreadedInstr&)`:
// the only semantics of each instruction. The handler ABI: when a
// handler runs, `cycle_` already includes the instruction's static cost
// (1-cycle issue + fixed functional-unit latency, folded into
// ThreadedInstr::cyc at lower time) and `instret_` does NOT yet count
// the instruction. Dynamic costs (cache misses, TLB walks,
// branch-mispredict flushes) and every stat-counter side effect happen
// in the handler. Ops whose handler reads cycle_ (memory, CSRs) carry no
// fixed latency, so they see the bare issue cycle.
// Handlers never touch pc_/next_pc_ except the control ops (jal/jalr/
// branches), which write the successor into pc_ directly; the dispatch
// loop restores the `next_pc_ == pc_` retire invariant per block.
struct ThreadedHost {
  using TI = isa::threaded::ThreadedInstr;

  static void wr32(Cva6Core& c, u8 rd, u64 v) {
    c.set_reg(rd, sign_extend(v & 0xFFFFFFFFull, 32));
  }
  /// Static BTFN (backward taken, forward not-taken) branch resolution:
  /// loop back-edges are free; mispredictions (forward taken, or a
  /// not-taken backward branch such as a loop exit) pay the flush.
  static void branch(Cva6Core& c, const TI& t, bool taken) {
    if (taken) {
      c.pc_ = t.pc + t.imm;
      c.ctr_taken_branches_ += 1;
      if (t.imm > 0) {
        c.cycle_ += c.config_.taken_branch_penalty;
        c.ctr_branch_mispredicts_ += 1;
      }
    } else {
      c.pc_ = t.pc + 4;
      if (t.imm < 0) {
        c.cycle_ += c.config_.taken_branch_penalty;
        c.ctr_branch_mispredicts_ += 1;
      }
    }
  }

  static void lui(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, sign_extend(static_cast<u32>(t.imm), 32));
  }
  static void auipc(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, t.pc + sign_extend(static_cast<u32>(t.imm), 32));
  }
  static void jal(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, t.pc + 4);
    c.pc_ = t.pc + t.imm;
  }
  static void jalr(Cva6Core& c, const TI& t) {
    const Addr target = (c.x_[t.rs1] + t.imm) & ~1ull;
    c.set_reg(t.rd, t.pc + 4);
    c.pc_ = target;
  }
  static void beq(Cva6Core& c, const TI& t) {
    branch(c, t, c.x_[t.rs1] == c.x_[t.rs2]);
  }
  static void bne(Cva6Core& c, const TI& t) {
    branch(c, t, c.x_[t.rs1] != c.x_[t.rs2]);
  }
  static void blt(Cva6Core& c, const TI& t) {
    branch(c, t,
           static_cast<i64>(c.x_[t.rs1]) < static_cast<i64>(c.x_[t.rs2]));
  }
  static void bge(Cva6Core& c, const TI& t) {
    branch(c, t,
           static_cast<i64>(c.x_[t.rs1]) >= static_cast<i64>(c.x_[t.rs2]));
  }
  static void bltu(Cva6Core& c, const TI& t) {
    branch(c, t, c.x_[t.rs1] < c.x_[t.rs2]);
  }
  static void bgeu(Cva6Core& c, const TI& t) {
    branch(c, t, c.x_[t.rs1] >= c.x_[t.rs2]);
  }

  HULKV_HOT_CODE static void lb(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.load(c.x_[t.rs1] + t.imm, 1, true));
  }
  HULKV_HOT_CODE static void lh(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.load(c.x_[t.rs1] + t.imm, 2, true));
  }
  HULKV_HOT_CODE static void lw(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.load(c.x_[t.rs1] + t.imm, 4, true));
  }
  HULKV_HOT_CODE static void lbu(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.load(c.x_[t.rs1] + t.imm, 1, false));
  }
  HULKV_HOT_CODE static void lhu(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.load(c.x_[t.rs1] + t.imm, 2, false));
  }
  HULKV_HOT_CODE static void lwu(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.load(c.x_[t.rs1] + t.imm, 4, false));
  }
  HULKV_HOT_CODE static void ld(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.load(c.x_[t.rs1] + t.imm, 8, false));
  }
  HULKV_HOT_CODE static void sb(Cva6Core& c, const TI& t) {
    c.store(c.x_[t.rs1] + t.imm, c.x_[t.rs2], 1);
  }
  HULKV_HOT_CODE static void sh(Cva6Core& c, const TI& t) {
    c.store(c.x_[t.rs1] + t.imm, c.x_[t.rs2], 2);
  }
  HULKV_HOT_CODE static void sw(Cva6Core& c, const TI& t) {
    c.store(c.x_[t.rs1] + t.imm, c.x_[t.rs2], 4);
  }
  HULKV_HOT_CODE static void sd(Cva6Core& c, const TI& t) {
    c.store(c.x_[t.rs1] + t.imm, c.x_[t.rs2], 8);
  }

  static void addi(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] + t.imm);
  }
  static void slti(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, static_cast<i64>(c.x_[t.rs1]) < t.imm ? 1 : 0);
  }
  static void sltiu(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd,
              c.x_[t.rs1] < static_cast<u64>(static_cast<i64>(t.imm)) ? 1 : 0);
  }
  static void xori(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] ^ static_cast<u64>(static_cast<i64>(t.imm)));
  }
  static void ori(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] | static_cast<u64>(static_cast<i64>(t.imm)));
  }
  static void andi(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] & static_cast<u64>(static_cast<i64>(t.imm)));
  }
  static void slli(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] << (t.imm & 63));
  }
  static void srli(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] >> (t.imm & 63));
  }
  static void srai(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, static_cast<u64>(static_cast<i64>(c.x_[t.rs1]) >>
                                     (t.imm & 63)));
  }
  static void add(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] + c.x_[t.rs2]);
  }
  static void sub(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] - c.x_[t.rs2]);
  }
  static void sll(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] << (c.x_[t.rs2] & 63));
  }
  static void slt(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, static_cast<i64>(c.x_[t.rs1]) <
                            static_cast<i64>(c.x_[t.rs2])
                        ? 1
                        : 0);
  }
  static void sltu(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] < c.x_[t.rs2] ? 1 : 0);
  }
  static void xor_(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] ^ c.x_[t.rs2]);
  }
  static void srl(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] >> (c.x_[t.rs2] & 63));
  }
  static void sra(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, static_cast<u64>(static_cast<i64>(c.x_[t.rs1]) >>
                                     (c.x_[t.rs2] & 63)));
  }
  static void or_(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] | c.x_[t.rs2]);
  }
  static void and_(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] & c.x_[t.rs2]);
  }

  static void addiw(Cva6Core& c, const TI& t) {
    wr32(c, t.rd, c.x_[t.rs1] + t.imm);
  }
  static void slliw(Cva6Core& c, const TI& t) {
    wr32(c, t.rd, c.x_[t.rs1] << (t.imm & 31));
  }
  static void srliw(Cva6Core& c, const TI& t) {
    wr32(c, t.rd, static_cast<u32>(c.x_[t.rs1]) >> (t.imm & 31));
  }
  static void sraiw(Cva6Core& c, const TI& t) {
    wr32(c, t.rd,
         static_cast<u64>(static_cast<i64>(static_cast<i32>(c.x_[t.rs1])) >>
                          (t.imm & 31)));
  }
  static void addw(Cva6Core& c, const TI& t) {
    wr32(c, t.rd, c.x_[t.rs1] + c.x_[t.rs2]);
  }
  static void subw(Cva6Core& c, const TI& t) {
    wr32(c, t.rd, c.x_[t.rs1] - c.x_[t.rs2]);
  }
  static void sllw(Cva6Core& c, const TI& t) {
    wr32(c, t.rd, c.x_[t.rs1] << (c.x_[t.rs2] & 31));
  }
  static void srlw(Cva6Core& c, const TI& t) {
    wr32(c, t.rd, static_cast<u32>(c.x_[t.rs1]) >> (c.x_[t.rs2] & 31));
  }
  static void sraw(Cva6Core& c, const TI& t) {
    wr32(c, t.rd,
         static_cast<u64>(static_cast<i64>(static_cast<i32>(c.x_[t.rs1])) >>
                          (c.x_[t.rs2] & 31)));
  }

  static void fence(Cva6Core&, const TI&) {}
  static void csr(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.csr_read(static_cast<u16>(t.imm)));
  }

  static void mul(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, c.x_[t.rs1] * c.x_[t.rs2]);
  }
  static void mulh(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, static_cast<u64>(
                        (static_cast<__int128>(static_cast<i64>(c.x_[t.rs1])) *
                         static_cast<__int128>(static_cast<i64>(c.x_[t.rs2])))
                        >> 64));
  }
  static void mulhsu(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, static_cast<u64>(
                        (static_cast<__int128>(static_cast<i64>(c.x_[t.rs1])) *
                         static_cast<unsigned __int128>(c.x_[t.rs2])) >> 64));
  }
  static void mulhu(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd,
              static_cast<u64>((static_cast<unsigned __int128>(c.x_[t.rs1]) *
                                static_cast<unsigned __int128>(c.x_[t.rs2]))
                               >> 64));
  }
  static void div(Cva6Core& c, const TI& t) {
    const u64 rs1 = c.x_[t.rs1], rs2 = c.x_[t.rs2];
    if (rs2 == 0) {
      c.set_reg(t.rd, ~0ull);
    } else if (static_cast<i64>(rs1) == std::numeric_limits<i64>::min() &&
               static_cast<i64>(rs2) == -1) {
      c.set_reg(t.rd, rs1);
    } else {
      c.set_reg(t.rd, static_cast<u64>(static_cast<i64>(rs1) /
                                       static_cast<i64>(rs2)));
    }
  }
  static void divu(Cva6Core& c, const TI& t) {
    const u64 rs2 = c.x_[t.rs2];
    c.set_reg(t.rd, rs2 == 0 ? ~0ull : c.x_[t.rs1] / rs2);
  }
  static void rem(Cva6Core& c, const TI& t) {
    const u64 rs1 = c.x_[t.rs1], rs2 = c.x_[t.rs2];
    if (rs2 == 0) {
      c.set_reg(t.rd, rs1);
    } else if (static_cast<i64>(rs1) == std::numeric_limits<i64>::min() &&
               static_cast<i64>(rs2) == -1) {
      c.set_reg(t.rd, 0);
    } else {
      c.set_reg(t.rd, static_cast<u64>(static_cast<i64>(rs1) %
                                       static_cast<i64>(rs2)));
    }
  }
  static void remu(Cva6Core& c, const TI& t) {
    const u64 rs2 = c.x_[t.rs2];
    c.set_reg(t.rd, rs2 == 0 ? c.x_[t.rs1] : c.x_[t.rs1] % rs2);
  }
  static void mulw(Cva6Core& c, const TI& t) {
    wr32(c, t.rd,
         static_cast<u64>(static_cast<i64>(static_cast<i32>(c.x_[t.rs1])) *
                          static_cast<i64>(static_cast<i32>(c.x_[t.rs2]))));
  }
  static void divw(Cva6Core& c, const TI& t) {
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
    wr32(c, t.rd, static_cast<u32>(r));
  }
  static void divuw(Cva6Core& c, const TI& t) {
    const u32 a = static_cast<u32>(c.x_[t.rs1]);
    const u32 b = static_cast<u32>(c.x_[t.rs2]);
    wr32(c, t.rd, b == 0 ? ~0u : a / b);
  }
  static void remw(Cva6Core& c, const TI& t) {
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
    wr32(c, t.rd, static_cast<u32>(r));
  }
  static void remuw(Cva6Core& c, const TI& t) {
    const u32 a = static_cast<u32>(c.x_[t.rs1]);
    const u32 b = static_cast<u32>(c.x_[t.rs2]);
    wr32(c, t.rd, b == 0 ? a : a % b);
  }

  HULKV_HOT_CODE static void flw(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd,
               0xFFFFFFFF00000000ull | c.load(c.x_[t.rs1] + t.imm, 4, false));
  }
  HULKV_HOT_CODE static void fld(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, c.load(c.x_[t.rs1] + t.imm, 8, false));
  }
  HULKV_HOT_CODE static void fsw(Cva6Core& c, const TI& t) {
    c.store(c.x_[t.rs1] + t.imm, static_cast<u32>(c.f_[t.rs2]), 4);
  }
  HULKV_HOT_CODE static void fsd(Cva6Core& c, const TI& t) {
    c.store(c.x_[t.rs1] + t.imm, c.f_[t.rs2], 8);
  }
  static void fadds(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, boxed(as_f32(c.f_[t.rs1]) + as_f32(c.f_[t.rs2])));
  }
  static void fsubs(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, boxed(as_f32(c.f_[t.rs1]) - as_f32(c.f_[t.rs2])));
  }
  static void fmuls(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, boxed(as_f32(c.f_[t.rs1]) * as_f32(c.f_[t.rs2])));
  }
  static void fdivs(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, boxed(as_f32(c.f_[t.rs1]) / as_f32(c.f_[t.rs2])));
  }
  static void fsqrts(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, boxed(std::sqrt(as_f32(c.f_[t.rs1]))));
  }
  static void fmadds(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, boxed(std::fma(as_f32(c.f_[t.rs1]), as_f32(c.f_[t.rs2]),
                                    as_f32(c.f_[t.rs3]))));
  }
  static void fmsubs(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, boxed(std::fma(as_f32(c.f_[t.rs1]), as_f32(c.f_[t.rs2]),
                                    -as_f32(c.f_[t.rs3]))));
  }
  static void fsgnjs(Cva6Core& c, const TI& t) {
    const u32 a = static_cast<u32>(c.f_[t.rs1]);
    const u32 b = static_cast<u32>(c.f_[t.rs2]);
    c.set_freg(t.rd, 0xFFFFFFFF00000000ull |
                         ((a & 0x7FFFFFFFu) | (b & 0x80000000u)));
  }
  static void fsgnjns(Cva6Core& c, const TI& t) {
    const u32 a = static_cast<u32>(c.f_[t.rs1]);
    const u32 b = static_cast<u32>(c.f_[t.rs2]);
    c.set_freg(t.rd, 0xFFFFFFFF00000000ull |
                         ((a & 0x7FFFFFFFu) | (~b & 0x80000000u)));
  }
  static void fsgnjxs(Cva6Core& c, const TI& t) {
    const u32 a = static_cast<u32>(c.f_[t.rs1]);
    const u32 b = static_cast<u32>(c.f_[t.rs2]);
    c.set_freg(t.rd, 0xFFFFFFFF00000000ull | (a ^ (b & 0x80000000u)));
  }
  static void fmins(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd,
               boxed(std::fmin(as_f32(c.f_[t.rs1]), as_f32(c.f_[t.rs2]))));
  }
  static void fmaxs(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd,
               boxed(std::fmax(as_f32(c.f_[t.rs1]), as_f32(c.f_[t.rs2]))));
  }
  static void feqs(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, as_f32(c.f_[t.rs1]) == as_f32(c.f_[t.rs2]) ? 1 : 0);
  }
  static void flts(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, as_f32(c.f_[t.rs1]) < as_f32(c.f_[t.rs2]) ? 1 : 0);
  }
  static void fles(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, as_f32(c.f_[t.rs1]) <= as_f32(c.f_[t.rs2]) ? 1 : 0);
  }
  static void fcvtws(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, sign_extend(static_cast<u32>(cvt_f_to_i32(
                                    as_f32(c.f_[t.rs1]))),
                                32));
  }
  static void fcvtls(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, static_cast<u64>(cvt_f_to_i64(as_f32(c.f_[t.rs1]))));
  }
  static void fcvtsw(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd,
               boxed(static_cast<float>(static_cast<i32>(c.x_[t.rs1]))));
  }
  static void fcvtsl(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd,
               boxed(static_cast<float>(static_cast<i64>(c.x_[t.rs1]))));
  }
  static void fmvxw(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, sign_extend(c.f_[t.rs1] & 0xFFFFFFFFull, 32));
  }
  static void fmvwx(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd,
               0xFFFFFFFF00000000ull | (c.x_[t.rs1] & 0xFFFFFFFFull));
  }

  static void faddd(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, raw64(as_f64(c.f_[t.rs1]) + as_f64(c.f_[t.rs2])));
  }
  static void fsubd(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, raw64(as_f64(c.f_[t.rs1]) - as_f64(c.f_[t.rs2])));
  }
  static void fmuld(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, raw64(as_f64(c.f_[t.rs1]) * as_f64(c.f_[t.rs2])));
  }
  static void fdivd(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, raw64(as_f64(c.f_[t.rs1]) / as_f64(c.f_[t.rs2])));
  }
  static void fmaddd(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, raw64(std::fma(as_f64(c.f_[t.rs1]), as_f64(c.f_[t.rs2]),
                                    as_f64(c.f_[t.rs3]))));
  }
  static void fmsubd(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, raw64(std::fma(as_f64(c.f_[t.rs1]), as_f64(c.f_[t.rs2]),
                                    -as_f64(c.f_[t.rs3]))));
  }
  static void fsgnjd(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, (c.f_[t.rs1] & 0x7FFFFFFFFFFFFFFFull) |
                         (c.f_[t.rs2] & 0x8000000000000000ull));
  }
  static void fsgnjnd(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, (c.f_[t.rs1] & 0x7FFFFFFFFFFFFFFFull) |
                         (~c.f_[t.rs2] & 0x8000000000000000ull));
  }
  static void fsgnjxd(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, c.f_[t.rs1] ^ (c.f_[t.rs2] & 0x8000000000000000ull));
  }
  static void feqd(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, as_f64(c.f_[t.rs1]) == as_f64(c.f_[t.rs2]) ? 1 : 0);
  }
  static void fltd(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, as_f64(c.f_[t.rs1]) < as_f64(c.f_[t.rs2]) ? 1 : 0);
  }
  static void fled(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, as_f64(c.f_[t.rs1]) <= as_f64(c.f_[t.rs2]) ? 1 : 0);
  }
  static void fcvtwd(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, sign_extend(static_cast<u32>(cvt_f_to_i32(
                                    as_f64(c.f_[t.rs1]))),
                                32));
  }
  static void fcvtld(Cva6Core& c, const TI& t) {
    c.set_reg(t.rd, static_cast<u64>(cvt_f_to_i64(as_f64(c.f_[t.rs1]))));
  }
  static void fcvtdw(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd,
               raw64(static_cast<double>(static_cast<i32>(c.x_[t.rs1]))));
  }
  static void fcvtdl(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd,
               raw64(static_cast<double>(static_cast<i64>(c.x_[t.rs1]))));
  }
  static void fcvtds(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, raw64(static_cast<double>(as_f32(c.f_[t.rs1]))));
  }
  static void fcvtsd(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, boxed(static_cast<float>(as_f64(c.f_[t.rs1]))));
  }
  static void fmvxd(Cva6Core& c, const TI& t) { c.set_reg(t.rd, c.f_[t.rs1]); }
  static void fmvdx(Cva6Core& c, const TI& t) {
    c.set_freg(t.rd, c.x_[t.rs1]);
  }
};

isa::threaded::HandlerInfo threaded_resolve(isa::Op op,
                                            const Cva6Config& cfg) {
  using isa::threaded::AnyFn;
  using isa::threaded::HandlerInfo;
  using H = ThreadedHost;
  const auto plain = [](void (*fn)(Cva6Core&, const ThreadedHost::TI&)) {
    return HandlerInfo{reinterpret_cast<AnyFn>(fn), 1};
  };
  const auto lat = [](void (*fn)(Cva6Core&, const ThreadedHost::TI&),
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
    case Op::kLwu: return plain(&H::lwu);
    case Op::kLd: return plain(&H::ld);
    case Op::kSb: return plain(&H::sb);
    case Op::kSh: return plain(&H::sh);
    case Op::kSw: return plain(&H::sw);
    case Op::kSd: return plain(&H::sd);
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
    case Op::kAddiw: return plain(&H::addiw);
    case Op::kSlliw: return plain(&H::slliw);
    case Op::kSrliw: return plain(&H::srliw);
    case Op::kSraiw: return plain(&H::sraiw);
    case Op::kAddw: return plain(&H::addw);
    case Op::kSubw: return plain(&H::subw);
    case Op::kSllw: return plain(&H::sllw);
    case Op::kSrlw: return plain(&H::srlw);
    case Op::kSraw: return plain(&H::sraw);
    case Op::kFence: return plain(&H::fence);
    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc:
    case Op::kCsrrwi:
    case Op::kCsrrsi:
    case Op::kCsrrci: return plain(&H::csr);
    case Op::kMul: return lat(&H::mul, cfg.mul_latency);
    case Op::kMulh: return lat(&H::mulh, cfg.mul_latency);
    case Op::kMulhsu: return lat(&H::mulhsu, cfg.mul_latency);
    case Op::kMulhu: return lat(&H::mulhu, cfg.mul_latency);
    case Op::kDiv: return lat(&H::div, cfg.div_latency);
    case Op::kDivu: return lat(&H::divu, cfg.div_latency);
    case Op::kRem: return lat(&H::rem, cfg.div_latency);
    case Op::kRemu: return lat(&H::remu, cfg.div_latency);
    case Op::kMulw: return lat(&H::mulw, cfg.mul_latency);
    case Op::kDivw: return lat(&H::divw, cfg.div_latency);
    case Op::kDivuw: return lat(&H::divuw, cfg.div_latency);
    case Op::kRemw: return lat(&H::remw, cfg.div_latency);
    case Op::kRemuw: return lat(&H::remuw, cfg.div_latency);
    case Op::kFlw: return plain(&H::flw);
    case Op::kFld: return plain(&H::fld);
    case Op::kFsw: return plain(&H::fsw);
    case Op::kFsd: return plain(&H::fsd);
    case Op::kFaddS: return lat(&H::fadds, cfg.fpu_latency);
    case Op::kFsubS: return lat(&H::fsubs, cfg.fpu_latency);
    case Op::kFmulS: return lat(&H::fmuls, cfg.fpu_latency);
    case Op::kFdivS: return lat(&H::fdivs, cfg.fdiv_latency);
    case Op::kFsqrtS: return lat(&H::fsqrts, cfg.fdiv_latency);
    case Op::kFmaddS: return lat(&H::fmadds, cfg.fpu_latency);
    case Op::kFmsubS: return lat(&H::fmsubs, cfg.fpu_latency);
    case Op::kFsgnjS: return plain(&H::fsgnjs);
    case Op::kFsgnjnS: return plain(&H::fsgnjns);
    case Op::kFsgnjxS: return plain(&H::fsgnjxs);
    case Op::kFminS: return lat(&H::fmins, cfg.fpu_latency);
    case Op::kFmaxS: return lat(&H::fmaxs, cfg.fpu_latency);
    case Op::kFeqS: return plain(&H::feqs);
    case Op::kFltS: return plain(&H::flts);
    case Op::kFleS: return plain(&H::fles);
    case Op::kFcvtWS: return lat(&H::fcvtws, cfg.fpu_latency);
    case Op::kFcvtSW: return lat(&H::fcvtsw, cfg.fpu_latency);
    case Op::kFcvtLS: return lat(&H::fcvtls, cfg.fpu_latency);
    case Op::kFcvtSL: return lat(&H::fcvtsl, cfg.fpu_latency);
    case Op::kFmvXW: return plain(&H::fmvxw);
    case Op::kFmvWX: return plain(&H::fmvwx);
    case Op::kFaddD: return lat(&H::faddd, cfg.fpu_latency);
    case Op::kFsubD: return lat(&H::fsubd, cfg.fpu_latency);
    case Op::kFmulD: return lat(&H::fmuld, cfg.fpu_latency);
    case Op::kFdivD: return lat(&H::fdivd, cfg.fdiv_latency);
    case Op::kFmaddD: return lat(&H::fmaddd, cfg.fpu_latency);
    case Op::kFmsubD: return lat(&H::fmsubd, cfg.fpu_latency);
    case Op::kFsgnjD: return plain(&H::fsgnjd);
    case Op::kFsgnjnD: return plain(&H::fsgnjnd);
    case Op::kFsgnjxD: return plain(&H::fsgnjxd);
    case Op::kFeqD: return plain(&H::feqd);
    case Op::kFltD: return plain(&H::fltd);
    case Op::kFleD: return plain(&H::fled);
    case Op::kFcvtWD: return lat(&H::fcvtwd, cfg.fpu_latency);
    case Op::kFcvtDW: return lat(&H::fcvtdw, cfg.fpu_latency);
    case Op::kFcvtDS: return lat(&H::fcvtds, cfg.fpu_latency);
    case Op::kFcvtSD: return lat(&H::fcvtsd, cfg.fpu_latency);
    case Op::kFcvtLD: return lat(&H::fcvtld, cfg.fpu_latency);
    case Op::kFcvtDL: return lat(&H::fcvtdl, cfg.fpu_latency);
    case Op::kFmvXD: return plain(&H::fmvxd);
    case Op::kFmvDX: return plain(&H::fmvdx);
    default:
      // ecall/ebreak/wfi, kIllegal and the PMCA-only Xpulp extensions:
      // trap ops, retired by Cva6Core::trap() at their exact pc.
      return HandlerInfo{nullptr, 1};
  }
}

// Dispatch: one indirect call per retired instruction. The static
// per-instruction cost is added before the handler runs and instret_ is
// counted after. pc_/next_pc_ are block carried: only control-tail
// handlers write pc_; at block end the loop re-establishes the
// `next_pc_ == pc_` retire invariant. Trap ops (flags & kFlagTrap)
// retire through trap() at their exact pc.
//
// The next block comes through the successor link of the block just
// left (BlockCache::follow, DESIGN.md §10): the fall-through link after
// running off the block's end or a returning trap, the taken link after
// a control tail that went elsewhere. The block probe is deferred to
// the top of the loop, so a bounded run whose budget is spent
// translates nothing more.
//
// The observed instantiation adds, per retired instruction, the
// profiler bracket, the set_trace disassembly log and the trace commit
// batch; the unobserved one carries none of that code.
template <bool kObserved, bool kBounded>
void Cva6Core::dispatch(u64 max_instructions, u64 start_instret,
                        profile::CoreProfile* prof) {
  using HostFn = void (*)(Cva6Core&, const isa::threaded::ThreadedInstr&);
  if constexpr (kObserved) {
    profile::detail::g_observed_entries.fetch_add(1,
                                                  std::memory_order_relaxed);
  }
  isa::DecodedBlock* entry = nullptr;
  isa::DecodedBlock** link = &entry;  // successor link to follow next
  // exited_ is false on entry (run() clears it) and only trap() can set
  // it, so it is re-checked only after a trap, not per block.
  while (!kBounded || instret_ - start_instret < max_instructions) {
    isa::DecodedBlock& block = blocks_.follow(*link, pc_);
    const isa::threaded::ThreadedInstr* const code =
        block.threaded.code.data();
    const size_t size = block.threaded.code.size();
  run_block:
    size_t count = size;
    if constexpr (kBounded) {
      count = static_cast<size_t>(std::min<u64>(
          size, max_instructions - (instret_ - start_instret)));
    }
    size_t i = 0;
    for (; i < count; ++i) {
      const isa::threaded::ThreadedInstr& t = code[i];
      if constexpr (kObserved) {
        if (prof != nullptr) prof->begin_instr(cycle_);
      }
      if (t.flags != 0) {
        if ((t.flags & isa::threaded::kFlagTrap) != 0) break;
        fetch_timing(t.pc);  // block entry or a static line crossing
      }
      if constexpr (kObserved) log_instr(t.pc, block.instrs[i]);
      cycle_ += t.cyc;
      reinterpret_cast<HostFn>(t.fn)(*this, t);
      ++instret_;
      if constexpr (kObserved) observe_retire(prof, block, i);
    }
    if (i < count) {
      // Trap: retire it at its exact pc. Only ecall and wfi return, and
      // both end their block.
      const isa::Instr& in = block.instrs[i];
      pc_ = code[i].pc;
      fetch_timing(pc_);
      if constexpr (kObserved) log_instr(pc_, in);
      next_pc_ = pc_ + 4;
      cycle_ += 1;  // single-issue, in-order
      trap(in);
      ++instret_;
      if constexpr (kObserved) observe_retire(prof, block, i);
      pc_ = next_pc_;
      if (exited_) return;
      // A syscall may have loaded code; follow() checks the generation.
      link = &block.fall_through;
      continue;
    }
    if (block.threaded.control_tail && i == size) {
      next_pc_ = pc_;
      // Tight-loop fast path: the tail branch re-entered this same
      // block, and nothing in a handler-only run can invalidate the
      // cache or exit, so the block is current. A bounded run recomputes
      // its budget at run_block: a spent budget runs nothing and leaves
      // pc_ at the loop head.
      if (pc_ == block.start) goto run_block;
      link = pc_ == block.start + 4 * size ? &block.fall_through
                                           : &block.taken;
      continue;
    }
    pc_ = block.start + 4 * i;  // fall-through or budget cut
    next_pc_ = pc_;
    link = &block.fall_through;
  }
}

inline void Cva6Core::log_instr(Addr pc, const Instr& in) const {
  if (trace_) {
    log(LogLevel::kTrace, "cva6", "cyc=", cycle_, " pc=0x", std::hex, pc,
        std::dec, "  ", isa::disasm(in));
  }
}

inline void Cva6Core::observe_retire(profile::CoreProfile* prof,
                                     const isa::DecodedBlock& block,
                                     size_t index) {
  if (prof != nullptr) prof->end_instr(block, index, cycle_);
  if (trace::enabled()) trace_commit();
}

void Cva6Core::serialize(snapshot::Archive& ar) {
  ar.bytes(x_, sizeof(x_));
  ar.bytes(f_, sizeof(f_));
  ar.pod(pc_);
  ar.pod(next_pc_);
  ar.pod(cycle_);
  ar.pod(instret_);
  ar.pod(exited_);
  ar.pod(exit_code_);
  ar.pod(fetch_line_);
  ar.pod(pending_commits_);
  icache_.serialize(ar);
  dcache_.serialize(ar);
  if (itlb_) itlb_->serialize(ar);
  if (dtlb_) dtlb_->serialize(ar);
  stats_.serialize(ar);
  if (ar.loading()) blocks_.invalidate();
}

}  // namespace hulkv::host
