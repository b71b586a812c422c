#include "analysis/analyzer.hpp"

#include <algorithm>
#include <vector>

#include "cluster/pmca_core.hpp"
#include "common/hex.hpp"
#include "isa/instr.hpp"

namespace hulkv::analysis {

using isa::Instr;
using isa::Op;

namespace {

constexpr u64 kAllDefined = ~u64{0};

/// Back-edge tolerance: after a block's in-state changed this many
/// times, further merges into it widen instead of join, so interval
/// climbs along loops (hardware loops, backward branches) terminate.
constexpr u32 kWidenAfter = 2;

/// Dataflow fact per program point: which register slots are defined,
/// and the value interval of every integer register.
struct RegState {
  u64 defined = 0;
  std::array<Interval, 32> val{};  // x0..x31; FP regs track definedness only
  bool valid = false;              // program point is reachable

  static RegState entry(u64 entry_defined, u32 bits) {
    RegState s;
    s.defined = entry_defined | 1;  // x0 is always defined...
    s.val[0] = Interval::constant(0, bits);  // ...and always 0
    for (u8 r = 1; r < 32; ++r) s.val[r] = Interval::top(bits);
    s.valid = true;
    return s;
  }

  /// Call fall-through: the callee may define (and clobber) anything.
  static RegState all_defined(u32 bits) {
    RegState s = entry(kAllDefined, bits);
    return s;
  }
};

struct MemRegion {
  Addr base;
  u64 size;
};

std::string_view abi_name(u8 r) {
  static constexpr std::string_view kNames[32] = {
      "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0",
      "a1",   "a2", "a3", "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5",
      "s6",   "s7", "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6"};
  return kNames[r & 31];
}

std::string slot_name(u8 slot) {
  if (slot < kFpBase) return std::string(abi_name(slot));
  return "f" + std::to_string(slot - kFpBase);
}

bool is_post_increment(Op op) {
  switch (op) {
    case Op::kPLbPost:
    case Op::kPLbuPost:
    case Op::kPLhPost:
    case Op::kPLwPost:
    case Op::kPLhuPost:
    case Op::kPSbPost:
    case Op::kPShPost:
    case Op::kPSwPost:
      return true;
    default:
      return false;
  }
}

bool is_fused_mem(Op op) {
  return op == Op::kPvSdotspBMem || op == Op::kPvSdotspHMem;
}

/// Memory access width in bytes, covering the fused MAC-&-load ops that
/// isa::access_size does not classify as loads (they load 32 bits).
unsigned mem_access_size(Op op) {
  if (is_fused_mem(op)) return 4;
  return isa::access_size(op);
}

/// Post-increment applied to rs1 after the access, when the op has one.
bool post_inc_amount(const Instr& in, i64* amount) {
  if (is_post_increment(in.op)) {
    *amount = in.imm;
    return true;
  }
  if (is_fused_mem(in.op)) {
    *amount = 4;
    return true;
  }
  return false;
}

bool is_csr_op(Op op) {
  switch (op) {
    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc:
    case Op::kCsrrwi:
    case Op::kCsrrsi:
    case Op::kCsrrci:
      return true;
    default:
      return false;
  }
}

bool is_hwloop_count_use(Op op) {
  return op == Op::kLpSetup || op == Op::kLpCount;
}

/// Truncate a 64-bit interval to its low 32 bits (for the RV64 *W ops).
Interval trunc32(const Interval& a) {
  if (a.is_bottom()) return Interval::bottom();
  if (a.is_constant()) return Interval::constant(a.lo, 32);
  if (a.hi <= Interval::mask_of(32)) return a;
  return Interval::top(32);
}

class Analyzer {
 public:
  Analyzer(const Cfg& cfg, const Options& options, Sink& sink,
           FactsTable& facts)
      : cfg_(cfg),
        options_(options),
        sink_(sink),
        facts_(facts),
        bits_(options.profile == IsaProfile::kClusterRv32 ? 32 : 64) {
    regions_ = {{{mem::map::kBootRomBase, mem::map::kBootRomSize},
                 {mem::map::kTcdmBase, options.tcdm_bytes},
                 {mem::map::kClusterPeriphBase, mem::map::kClusterPeriphSize},
                 {mem::map::kApbBase, mem::map::kApbSize},
                 {mem::map::kL2Base, mem::map::kL2Size},
                 {mem::map::kDramBase, mem::map::kDramSize}}};
  }

  void run() {
    if (cfg_.blocks.empty()) return;
    const u64 entry_mask = options_.entry_defined != 0
                               ? options_.entry_defined
                               : default_entry_defined(options_.profile);
    in_.assign(cfg_.blocks.size(), RegState{});
    in_[0] = RegState::entry(entry_mask, bits_);
    for (const auto& [slot, value] : options_.entry_values) {
      if (slot > 0 && slot < 32) {
        in_[0].val[slot] = Interval::meet(in_[0].val[slot], value);
        in_[0].defined |= u64{1} << slot;
      }
    }

    // Fixpoint over definedness and value intervals. `updates` counts
    // in-state changes per block; past kWidenAfter, merges widen so the
    // pass terminates on loops whose intervals would otherwise climb
    // one step per visit.
    std::vector<u32> updates(cfg_.blocks.size(), 0);
    std::vector<size_t> work{0};
    std::vector<bool> queued(cfg_.blocks.size(), false);
    queued[0] = true;
    while (!work.empty()) {
      const size_t b = work.back();
      work.pop_back();
      queued[b] = false;
      RegState s = in_[b];
      const Block& block = cfg_.blocks[b];
      for (size_t i = block.first; i <= block.last; ++i) {
        transfer(i, s, Mode::kFix, nullptr, nullptr);
      }
      for (size_t pos = 0; pos < block.succs.size(); ++pos) {
        const bool through_call = block.is_call && pos == block.fall_succ;
        const RegState& out =
            through_call ? RegState::all_defined(bits_) : s;
        const size_t succ = block.succs[pos];
        if (merge_state(in_[succ], out, updates[succ] >= kWidenAfter)) {
          ++updates[succ];
          if (!queued[succ]) {
            queued[succ] = true;
            work.push_back(succ);
          }
        }
      }
    }

    // Second pass over the stabilised states: emit diagnostics and fill
    // the facts table. Blocks the dataflow never reached (only possible
    // via an unresolved jalr) get a facts-only pass under an all-top
    // state — conservative facts, no diagnostics.
    for (size_t b = 0; b < cfg_.blocks.size(); ++b) {
      if (in_[b].valid) {
        emit_block(b, in_[b], /*diagnostics=*/true);
      } else {
        emit_block(b, RegState::all_defined(bits_), /*diagnostics=*/false);
      }
    }
  }

 private:
  enum class Mode { kFix, kEmit, kFactsOnly };

  /// Merge `src` into `dst` (join per register, intersection of defined
  /// sets; `widen` jumps moving interval bounds to the extremes).
  /// Returns true when `dst` changed.
  bool merge_state(RegState& dst, const RegState& src, bool widen) {
    if (!src.valid) return false;
    if (!dst.valid) {
      dst = src;
      return true;
    }
    bool changed = false;
    const u64 defined2 = dst.defined & src.defined;
    if (defined2 != dst.defined) {
      dst.defined = defined2;
      changed = true;
    }
    for (u8 r = 1; r < 32; ++r) {
      Interval next = Interval::join(dst.val[r], src.val[r]);
      if (widen) next = Interval::widen(dst.val[r], next, bits_);
      if (!(next == dst.val[r])) {
        dst.val[r] = next;
        changed = true;
      }
    }
    return changed;
  }

  /// Diagnostics + facts for one block from its (stabilised) in-state.
  void emit_block(size_t b, const RegState& in_state, bool diagnostics) {
    const Block& block = cfg_.blocks[b];
    BlockFacts& bf = facts_.blocks[b];
    bf.first = static_cast<u32>(block.first);
    bf.last = static_cast<u32>(block.last);
    bf.start = cfg_.program.addr_of(block.first);
    bf.end = cfg_.program.addr_of(block.last) + 4;
    // Lower bound independent of configured latencies: every
    // instruction retires in at least one cycle on both cores.
    bf.min_cycles = static_cast<u32>(block.last - block.first + 1);
    bf.reachable = diagnostics;

    RegState s = in_state;
    std::array<size_t, 64> pending_def;
    pending_def.fill(SIZE_MAX);
    const Mode mode = diagnostics ? Mode::kEmit : Mode::kFactsOnly;
    for (size_t i = block.first; i <= block.last; ++i) {
      transfer(i, s, mode, &pending_def, &bf);
    }

    bool all_tcdm = true;
    bool ordered = false;
    bool csr = false;
    for (size_t i = block.first; i <= block.last; ++i) {
      const u8 f = facts_.instr_facts[i];
      if ((f & kFactMemAccess) != 0) {
        bf.may_access_memory = true;
        if ((f & kFactTcdmLocal) == 0) all_tcdm = false;
      }
      if ((f & kFactEcall) != 0) bf.may_ecall = true;
      if ((f & kFactOrdered) != 0) ordered = true;
      csr |= is_csr_op(cfg_.program.instrs[i].op);
    }
    bf.tcdm_local = bf.may_access_memory && all_tcdm;
    // CSR reads (cycle/instret) depend on time, not just registers.
    bf.pure = !bf.may_access_memory && !bf.may_ecall && !ordered && !csr;
    bf.run_ahead_eligible = !bf.may_access_memory && !ordered;
  }

  /// a7 at the ecall `i`: the CFG's syntactic back-scan first, then the
  /// interval state (a singleton a7 proves the service on every path).
  i64 ecall_service(size_t i, const RegState& s) const {
    const i64 syntactic = cfg_.ecall_a7[i];
    if (syntactic >= 0) return syntactic;
    const Interval& a7 = s.val[isa::reg::a7];
    if (a7.is_constant()) return static_cast<i64>(a7.value());
    return -1;
  }

  /// True when the service's handler touches no cross-core shared
  /// timing state, so a run-ahead scheduler may execute the ecall past
  /// its time horizon: the cluster's kExit (sets the core finished) and
  /// kCoreCount (writes a0 from a constant); the host's exit (93).
  bool is_core_local_service(i64 a7) const {
    if (a7 < 0) return false;
    if (options_.profile == IsaProfile::kClusterRv32) {
      return a7 == static_cast<i64>(cluster::envcall::kExit) ||
             a7 == static_cast<i64>(cluster::envcall::kCoreCount);
    }
    return a7 == 93;
  }

  /// Apply instruction `i` to `s`. In kEmit mode, first check its uses
  /// and statically-bounded memory accesses against the incoming state;
  /// in kEmit/kFactsOnly modes also record the instruction's facts.
  void transfer(size_t i, RegState& s, Mode mode,
                std::array<size_t, 64>* pending_def, BlockFacts* bf) {
    const Instr& in = cfg_.program.instrs[i];
    const Addr pc = cfg_.program.addr_of(i);
    const i64 a7 =
        in.op == Op::kEcall ? ecall_service(i, s) : cfg_.ecall_a7[i];
    const RegOps ops = reg_ops(in, options_.profile, a7);
    const bool emit = mode == Mode::kEmit;

    if (emit) {
      for (u8 k = 0; k < ops.nuses; ++k) {
        const u8 slot = ops.uses[k];
        if (!(s.defined & (u64{1} << slot))) {
          if (is_hwloop_count_use(in.op) && slot == in.rs1) {
            sink_.add(Diag::kHwLoopCountUndefined, pc,
                      "hardware-loop count register " + slot_name(slot) +
                          " is not defined on all paths from the entry "
                          "point");
          } else {
            sink_.add(Diag::kUseBeforeDef, pc,
                      "register " + slot_name(slot) +
                          " is read but not defined on all paths from "
                          "the entry point");
          }
          s.defined |= u64{1} << slot;  // report each slot once per block
        }
        (*pending_def)[slot] = SIZE_MAX;
      }
      if (is_hwloop_count_use(in.op) && s.val[in.rs1].is_constant() &&
          s.val[in.rs1].value() == 0) {
        sink_.add(Diag::kHwLoopBadCount, pc,
                  "hardware-loop count register " + slot_name(in.rs1) +
                      " is statically 0 (must be >= 1)");
      }
      if (in.op == Op::kEcall &&
          options_.profile == IsaProfile::kClusterRv32 &&
          cfg_.ecall_a7[i] < 0 && a7 >= 0 &&
          a7 > static_cast<i64>(cluster::envcall::kCoreCount)) {
        // The syntactic back-scan gave up but the interval state proves
        // the service id on every path.
        sink_.add(Diag::kUnknownEnvcall, pc,
                  "ecall with unsupported PMCA service id " +
                      std::to_string(a7));
      }
      if (in.op == Op::kEcall || in.op == Op::kJal ||
          in.op == Op::kJalr) {
        // A service routine or callee may read anything later.
        pending_def->fill(SIZE_MAX);
      }
    }

    if (mode != Mode::kFix) {
      facts_.instr_facts[i] |= instr_facts(in, i, pc, s, a7, emit, bf);
    }

    // Value transfer. Post-increment amounts are computed from the
    // pre-access state (the hardware reads rs1 before updating it).
    const Interval rd_val = transfer_value(in, pc, s);
    i64 inc = 0;
    const bool has_inc = post_inc_amount(in, &inc);
    const Interval rs1_val =
        has_inc ? Interval::add_const(s.val[in.rs1], inc, bits_)
                : Interval::bottom();
    for (u8 k = 0; k < ops.ndefs; ++k) {
      const u8 slot = ops.defs[k];
      if (slot == 0) continue;  // writes to x0 are discarded
      if (emit) {
        if ((*pending_def)[slot] != SIZE_MAX) {
          const size_t j = (*pending_def)[slot];
          sink_.add(Diag::kDeadWrite, cfg_.program.addr_of(j),
                    "register " + slot_name(slot) +
                        " is overwritten at pc=0x" + hex(pc) +
                        " before it is ever read");
        }
        (*pending_def)[slot] = i;
      }
      s.defined |= u64{1} << slot;
      if (slot >= 32) continue;
      if (has_inc && slot == in.rs1) {
        // With rd == rs1 the post-increment lands last, like the ISS.
        s.val[slot] = rs1_val;
      } else if (slot == in.rd) {
        s.val[slot] = rd_val;
      } else {
        s.val[slot] = Interval::top(bits_);  // ecall-clobbered argument
      }
    }
  }

  /// Interval written to the integer rd. Covers the assembler's `li`
  /// expansion (lui/addi/addiw/slli), address arithmetic, and the ops
  /// with cheaply-bounded results; everything else returns top.
  Interval transfer_value(const Instr& in, Addr pc, const RegState& s) {
    const auto& v1 = s.val[in.rs1];
    const auto& v2 = s.val[in.rs2];
    const auto imm = static_cast<i64>(in.imm);
    const auto both_const = [&](auto fn) {
      if (v1.is_constant() && v2.is_constant()) {
        return Interval::constant(fn(v1.value(), v2.value()), bits_);
      }
      return Interval::top(bits_);
    };
    switch (in.op) {
      case Op::kLui:
        return Interval::constant(static_cast<u64>(imm), bits_);
      case Op::kAuipc:
        // A PIC image runs at an unknown load address; pc-relative
        // values cannot be folded to absolute ones. Non-PIC images are
        // analyzed at their load address, so auipc-derived addresses
        // stay bounded through the later arithmetic.
        return options_.pic
                   ? Interval::top(bits_)
                   : Interval::constant(pc + static_cast<u64>(imm), bits_);
      case Op::kAddi:
        return Interval::add_const(v1, imm, bits_);
      case Op::kAddiw:
        return Interval::sext32(
            Interval::add_const(trunc32(v1), imm, 32));
      case Op::kAdd:
        return Interval::add(v1, v2, bits_);
      case Op::kSub:
        return Interval::sub(v1, v2, bits_);
      case Op::kAddw:
        return Interval::sext32(
            Interval::add(trunc32(v1), trunc32(v2), 32));
      case Op::kSubw:
        return Interval::sext32(
            Interval::sub(trunc32(v1), trunc32(v2), 32));
      case Op::kSlli:
        return Interval::shl(v1, static_cast<u32>(in.imm), bits_);
      case Op::kSrli:
        return Interval::shr(v1, static_cast<u32>(in.imm), bits_);
      case Op::kSlliw:
        return Interval::sext32(
            Interval::shl(trunc32(v1), static_cast<u32>(in.imm), 32));
      case Op::kOri:
        return Interval::or_const(v1, imm, bits_);
      case Op::kXori:
        return Interval::xor_const(v1, imm, bits_);
      case Op::kAndi:
        return Interval::and_const(v1, imm, bits_);
      case Op::kSlti:
      case Op::kSltiu:
      case Op::kSlt:
      case Op::kSltu:
        return Interval::range(0, 1);
      case Op::kOr:
        return both_const([](u64 a, u64 b) { return a | b; });
      case Op::kAnd:
        return both_const([](u64 a, u64 b) { return a & b; });
      case Op::kXor:
        return both_const([](u64 a, u64 b) { return a ^ b; });
      case Op::kMul:
        return both_const([](u64 a, u64 b) { return a * b; });
      case Op::kPExtbz:
        return Interval::range(0, 0xFF);
      case Op::kPExthz:
        return Interval::range(0, 0xFFFF);
      default:
        return Interval::top(bits_);
    }
  }

  /// Fact flags of one instruction under the incoming state `s`. In
  /// emit mode, also checks statically-bounded memory accesses.
  u8 instr_facts(const Instr& in, size_t i, Addr pc, const RegState& s,
                 i64 a7, bool emit, BlockFacts* bf) {
    (void)i;
    u8 flags = 0;
    switch (in.op) {
      case Op::kEcall:
        flags |= kFactEcall;
        flags |= is_core_local_service(a7) ? kFactCoreLocalEcall
                                           : kFactOrdered;
        return flags;
      case Op::kEbreak:
      case Op::kWfi:
      case Op::kIllegal:
      case Op::kFence:  // cross-core memory ordering: never run ahead
        return kFactOrdered;
      default:
        break;
    }
    const unsigned size = mem_access_size(in.op);
    if (size == 0) return flags;
    flags |= kFactMemAccess;

    // Effective address as an interval; post-increment and fused ops
    // address through rs1 directly.
    const bool through_rs1 = is_post_increment(in.op) || is_fused_mem(in.op);
    const Interval ea =
        through_rs1 ? s.val[in.rs1]
                    : Interval::add_const(s.val[in.rs1],
                                          static_cast<i64>(in.imm), bits_);
    if (ea.is_bottom()) return flags;
    if (ea.is_top(bits_)) {
      if (bf != nullptr) bf->footprint.set_unbounded();
      return flags;
    }
    const Addr lo = ea.lo;
    const Addr end = ea.hi + size;  // touched bytes lie in [lo, end)
    if (bf != nullptr) bf->footprint.add(lo, end);

    const Addr tcdm_end = mem::map::kTcdmBase + options_.tcdm_bytes;
    const bool in_tcdm = lo >= mem::map::kTcdmBase && end <= tcdm_end;
    if (in_tcdm) flags |= kFactTcdmLocal;
    if (!emit) return flags;

    const std::string what = std::string(isa::mnemonic(in.op)) + " of " +
                             std::to_string(size) + " byte(s) at 0x" +
                             hex(lo) +
                             (ea.is_constant()
                                  ? std::string()
                                  : "..0x" + hex(ea.hi));
    if (ea.is_constant() && lo % size != 0) {
      sink_.add(Diag::kMisalignedAccess, pc, what + " is misaligned");
      return flags;
    }
    // Range-level proofs: a diagnostic is emitted only when *every*
    // address in the interval misbehaves.
    const bool any_mapped = std::any_of(
        regions_.begin(), regions_.end(), [&](const MemRegion& r) {
          return lo < r.base + r.size && r.base < end;
        });
    if (!any_mapped) {
      sink_.add(Diag::kUnmappedAddress, pc,
                what + " hits no SoC memory region");
      return flags;
    }
    if (options_.profile == IsaProfile::kClusterRv32 && options_.iopmp &&
        options_.iopmp->enforcing() && !intersects_tcdm(lo, end) &&
        !iopmp_may_allow(lo, end, isa::is_store(in.op))) {
      sink_.add(Diag::kIopmpDenied, pc,
                what + " will be denied by the IOPMP grant windows");
    }
    return flags;
  }

  bool intersects_tcdm(Addr lo, Addr end) const {
    return lo < mem::map::kTcdmBase + options_.tcdm_bytes &&
           mem::map::kTcdmBase < end;
  }

  /// True when some address in [lo, end) lies in a grant window with
  /// the needed permission — i.e. the denial is not provable.
  bool iopmp_may_allow(Addr lo, Addr end, bool is_write) const {
    for (const core::Iopmp::Region& r : options_.iopmp->regions()) {
      const bool allowed = is_write ? r.allow_write : r.allow_read;
      if (allowed && lo < r.base + r.size && r.base < end) return true;
    }
    return false;
  }

  const Cfg& cfg_;
  const Options& options_;
  Sink& sink_;
  FactsTable& facts_;
  const u32 bits_;
  std::array<MemRegion, 6> regions_;
  std::vector<RegState> in_;
};

}  // namespace

u64 default_entry_defined(IsaProfile profile) {
  using namespace isa::reg;
  if (profile == IsaProfile::kClusterRv32) {
    return reg_mask({a0, sp});  // Cluster::run_kernel convention
  }
  return reg_mask({a0, a1, a2, a3, a4, a5, sp});  // run_host_program
}

Analysis analyze_program(std::span<const u32> words,
                         const Options& options) {
  Analysis result;
  Sink sink(&result.report, &options.policy);
  const Cfg cfg = build_cfg(words, options.base, options.profile, sink);
  result.report.instructions = static_cast<u32>(cfg.program.instrs.size());
  result.report.blocks = static_cast<u32>(cfg.blocks.size());
  result.report.hw_loops = static_cast<u32>(cfg.loops.size());

  FactsTable& facts = result.facts;
  facts.instr_facts.assign(cfg.program.instrs.size(), 0);
  facts.blocks.assign(cfg.blocks.size(), BlockFacts{});
  if (!cfg.blocks.empty()) {
    Analyzer analyzer(cfg, options, sink, facts);
    analyzer.run();
    facts.functions = build_callgraph(cfg, facts);
  }

  std::stable_sort(result.report.diagnostics.begin(),
                   result.report.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return a.pc < b.pc;
                   });
  return result;
}

Report analyze(std::span<const u32> words, const Options& options) {
  return analyze_program(words, options).report;
}

}  // namespace hulkv::analysis
