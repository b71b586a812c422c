#include "analysis/cfg.hpp"

#include <algorithm>
#include <sstream>

#include "cluster/pmca_core.hpp"
#include "common/hex.hpp"
#include "isa/decoder.hpp"
#include "isa/disasm.hpp"

namespace hulkv::analysis {

using isa::Instr;
using isa::Op;

namespace {

/// Integer-register slot of a7 (ecall service id on both cores).
constexpr u8 kA7 = isa::reg::a7;

bool is_control(Op op) {
  return isa::is_branch(op) || op == Op::kJal || op == Op::kJalr ||
         op == Op::kEcall || op == Op::kEbreak || op == Op::kIllegal;
}

bool has_direct_target(Op op) {
  return isa::is_branch(op) || op == Op::kJal;
}

bool is_return(const Instr& in) {
  return in.op == Op::kJalr && in.rd == 0 && in.rs1 == isa::reg::ra &&
         in.imm == 0;
}

bool defines_a7(const Instr& in, IsaProfile profile) {
  const RegOps ops = reg_ops(in, profile, -1);
  for (u8 k = 0; k < ops.ndefs; ++k) {
    if (ops.defs[k] == kA7) return true;
  }
  return false;
}

/// The exit service id of the profile's environment (cluster
/// envcall::kExit, host Linux-style exit).
i64 exit_service(IsaProfile profile) {
  return profile == IsaProfile::kClusterRv32
             ? static_cast<i64>(cluster::envcall::kExit)
             : 93;
}

/// True when the ecall at `index` provably terminates the core.
bool is_exit_ecall(const Cfg& cfg, size_t index, IsaProfile profile) {
  return cfg.program.instrs[index].op == Op::kEcall &&
         cfg.ecall_a7[index] == exit_service(profile);
}

/// Statically resolve a7 at the ecall `index`: scan backwards through
/// straight-line code for the dominating a7 definition; give up at any
/// control transfer or join point (branch target), where a different
/// path could reach the ecall.
i64 resolve_ecall_a7(const Program& program,
                     const std::vector<bool>& is_target, size_t index,
                     IsaProfile profile) {
  if (is_target[index]) return -1;
  for (size_t j = index; j-- > 0;) {
    const Instr& in = program.instrs[j];
    if (defines_a7(in, profile)) {
      if (in.op == Op::kAddi && in.rs1 == 0) return in.imm;
      if (in.op == Op::kLui) return in.imm;
      return -1;  // dynamic a7 (loaded, computed, ...)
    }
    if (is_control(in.op)) return -1;
    if (is_target[j]) return -1;
  }
  return -1;
}

struct LoopChecker {
  const Cfg& cfg;
  IsaProfile profile;
  Sink& sink;

  bool setup_reachable(const HwLoopInfo& loop) const {
    return cfg.blocks[cfg.block_of[loop.setup_index]].reachable;
  }

  bool inside(const HwLoopInfo& loop, Addr addr) const {
    return addr >= loop.start && addr < loop.end;
  }

  void check_body_edges(const HwLoopInfo& loop) {
    const Program& program = cfg.program;
    for (const Block& block : cfg.blocks) {
      if (!block.reachable) continue;
      for (size_t i = block.first; i <= block.last; ++i) {
        const Instr& in = program.instrs[i];
        const Addr pc = program.addr_of(i);
        if (has_direct_target(in.op)) {
          const Addr target = pc + in.imm;
          if (!program.contains(target)) continue;  // reported elsewhere
          const bool from_body = inside(loop, pc);
          const bool to_body = inside(loop, target);
          if (from_body && !to_body && target != loop.end) {
            sink.add(Diag::kHwLoopBranchOutOfBody, pc,
                     "branch leaves the hardware-loop body [0x" +
                         hex(loop.start) + ", 0x" + hex(loop.end) +
                         ") for 0x" + hex(target));
          } else if (!from_body && to_body) {
            sink.add(Diag::kHwLoopBranchIntoBody, pc,
                     "branch enters the hardware-loop body [0x" +
                         hex(loop.start) + ", 0x" + hex(loop.end) +
                         ") at 0x" + hex(target) +
                         " without executing the loop setup");
          }
        } else if (in.op == Op::kJalr && inside(loop, pc)) {
          sink.add(Diag::kHwLoopBranchOutOfBody, pc,
                   is_return(in)
                       ? "return inside a hardware-loop body"
                       : "indirect jump inside a hardware-loop body");
        }
      }
    }
  }

  void check_nesting(const std::vector<HwLoopInfo>& loops) {
    for (size_t a = 0; a < loops.size(); ++a) {
      for (size_t b = a + 1; b < loops.size(); ++b) {
        const HwLoopInfo& outer =
            loops[a].start <= loops[b].start ? loops[a] : loops[b];
        const HwLoopInfo& inner =
            loops[a].start <= loops[b].start ? loops[b] : loops[a];
        if (!outer.valid || !inner.valid) continue;
        if (!setup_reachable(outer) || !setup_reachable(inner)) continue;
        if (inner.start >= outer.end) continue;  // disjoint
        const Addr inner_pc = cfg.program.addr_of(inner.setup_index);
        if (inner.end > outer.end) {
          sink.add(Diag::kHwLoopBadNesting, inner_pc,
                   "hardware-loop bodies overlap without nesting: [0x" +
                       hex(outer.start) + ", 0x" + hex(outer.end) +
                       ") vs [0x" + hex(inner.start) + ", 0x" +
                       hex(inner.end) + ")");
        } else if (inner.index == outer.index) {
          sink.add(Diag::kHwLoopBadNesting, inner_pc,
                   "nested hardware loops share loop index " +
                       std::to_string(inner.index));
        }
      }
    }
  }
};

/// Collect armed hardware loops: every lp.setup, plus split-form
/// lp.starti/lp.endi pairs when they are unambiguous.
std::vector<HwLoopInfo> collect_loops(const Program& program, Sink& sink) {
  std::vector<HwLoopInfo> loops;
  struct SplitForm {
    std::vector<size_t> starti, endi;
    bool has_count = false;
  };
  SplitForm split[2];

  for (size_t i = 0; i < program.instrs.size(); ++i) {
    const Instr& in = program.instrs[i];
    const u8 index = in.rd & 1;
    switch (in.op) {
      case Op::kLpSetup:
        loops.push_back({i, index, program.addr_of(i) + 4,
                         program.addr_of(i) + in.imm, false});
        break;
      case Op::kLpStarti:
        split[index].starti.push_back(i);
        break;
      case Op::kLpEndi:
        split[index].endi.push_back(i);
        break;
      case Op::kLpCount:
      case Op::kLpCounti:
        split[index].has_count = true;
        break;
      default:
        break;
    }
  }

  for (u8 index = 0; index < 2; ++index) {
    const SplitForm& form = split[index];
    if (form.starti.empty() && form.endi.empty()) continue;
    if (form.starti.size() != 1 || form.endi.size() != 1) {
      const size_t at =
          form.starti.empty() ? form.endi.front() : form.starti.front();
      sink.add(Diag::kHwLoopUnverifiable, program.addr_of(at),
               "split-form hardware loop " + std::to_string(index) +
                   " has an ambiguous start/end configuration; body "
                   "checks skipped");
      continue;
    }
    const size_t si = form.starti.front();
    const size_t ei = form.endi.front();
    if (!form.has_count) {
      sink.add(Diag::kHwLoopCountUndefined, program.addr_of(si),
               "hardware loop " + std::to_string(index) +
                   " has lp.starti/lp.endi but no lp.count/lp.counti");
    }
    loops.push_back({si, index,
                     program.addr_of(si) + program.instrs[si].imm,
                     program.addr_of(ei) + program.instrs[ei].imm, false});
  }

  // Body validity: non-empty, 4-byte aligned, inside the image. `end`
  // may equal the image end, but execution then falls off the image —
  // the fall-through check reports that separately.
  for (HwLoopInfo& loop : loops) {
    const Addr pc = program.addr_of(loop.setup_index);
    if (loop.start % 4 != 0 || loop.end % 4 != 0 ||
        !program.contains(loop.start) || loop.end > program.end()) {
      sink.add(Diag::kHwLoopBodyOutOfImage, pc,
               "hardware-loop body [0x" + hex(loop.start) + ", 0x" +
                   hex(loop.end) + ") is not inside the image [0x" +
                   hex(program.base) + ", 0x" + hex(program.end()) + ")");
      continue;
    }
    if (loop.end <= loop.start) {
      sink.add(Diag::kHwLoopEmptyBody, pc,
               "hardware loop " + std::to_string(loop.index) +
                   " has an empty body");
      continue;
    }
    loop.valid = true;
  }
  return loops;
}

}  // namespace

bool op_in_profile(Op op, IsaProfile profile) {
  const auto v = static_cast<u16>(op);
  const bool rv64_only =
      op == Op::kLwu || op == Op::kLd || op == Op::kSd ||
      op == Op::kAddiw || op == Op::kSlliw || op == Op::kSrliw ||
      op == Op::kSraiw || op == Op::kAddw || op == Op::kSubw ||
      op == Op::kSllw || op == Op::kSrlw || op == Op::kSraw ||
      op == Op::kMulw || op == Op::kDivw || op == Op::kDivuw ||
      op == Op::kRemw || op == Op::kRemuw || op == Op::kFcvtLS ||
      op == Op::kFcvtSL ||
      (v >= static_cast<u16>(Op::kFld) &&
       v <= static_cast<u16>(Op::kFmvDX)) ||
      op == Op::kWfi;  // the PMCA has no wfi (event-unit sleep instead)
  const bool xpulp = v >= static_cast<u16>(Op::kLpStarti) &&
                     v <= static_cast<u16>(Op::kVfcvtHS);
  if (profile == IsaProfile::kClusterRv32) return !rv64_only;
  return !xpulp;
}

RegOps reg_ops(const Instr& in, IsaProfile profile, i64 ecall_a7) {
  using isa::reg::a0;
  RegOps ops;
  const u8 rd = in.rd, rs1 = in.rs1, rs2 = in.rs2, rs3 = in.rs3;
  const auto frd = static_cast<u8>(kFpBase + rd);
  const auto frs1 = static_cast<u8>(kFpBase + rs1);
  const auto frs2 = static_cast<u8>(kFpBase + rs2);
  const auto frs3 = static_cast<u8>(kFpBase + rs3);

  switch (in.op) {
    case Op::kLui:
    case Op::kAuipc:
    case Op::kJal:
      ops.def(rd);
      break;
    case Op::kJalr:
      ops.use(rs1);
      ops.def(rd);
      break;
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu:
      ops.use(rs1);
      ops.use(rs2);
      break;
    case Op::kLb:
    case Op::kLh:
    case Op::kLw:
    case Op::kLbu:
    case Op::kLhu:
    case Op::kLwu:
    case Op::kLd:
      ops.use(rs1);
      ops.def(rd);
      break;
    case Op::kSb:
    case Op::kSh:
    case Op::kSw:
    case Op::kSd:
      ops.use(rs1);
      ops.use(rs2);
      break;
    case Op::kAddi:
    case Op::kSlti:
    case Op::kSltiu:
    case Op::kXori:
    case Op::kOri:
    case Op::kAndi:
    case Op::kSlli:
    case Op::kSrli:
    case Op::kSrai:
    case Op::kAddiw:
    case Op::kSlliw:
    case Op::kSrliw:
    case Op::kSraiw:
      ops.use(rs1);
      ops.def(rd);
      break;
    case Op::kAdd:
    case Op::kSub:
    case Op::kSll:
    case Op::kSlt:
    case Op::kSltu:
    case Op::kXor:
    case Op::kSrl:
    case Op::kSra:
    case Op::kOr:
    case Op::kAnd:
    case Op::kAddw:
    case Op::kSubw:
    case Op::kSllw:
    case Op::kSrlw:
    case Op::kSraw:
    case Op::kMul:
    case Op::kMulh:
    case Op::kMulhsu:
    case Op::kMulhu:
    case Op::kDiv:
    case Op::kDivu:
    case Op::kRem:
    case Op::kRemu:
    case Op::kMulw:
    case Op::kDivw:
    case Op::kDivuw:
    case Op::kRemw:
    case Op::kRemuw:
      ops.use(rs1);
      ops.use(rs2);
      ops.def(rd);
      break;
    case Op::kFence:
    case Op::kEbreak:
    case Op::kWfi:
    case Op::kIllegal:
      break;
    case Op::kEcall:
      // a7 selects the service; the argument registers depend on it.
      ops.use(kA7);
      if (profile == IsaProfile::kClusterRv32) {
        switch (ecall_a7) {
          case cluster::envcall::kExit:
          case cluster::envcall::kBarrier:
          case cluster::envcall::kDmaWait:
            break;
          case cluster::envcall::kDma2d:
            ops.use(a0 + 3);
            ops.use(a0 + 4);
            [[fallthrough]];
          case cluster::envcall::kDma1d:
            ops.use(a0);
            ops.use(a0 + 1);
            ops.use(a0 + 2);
            ops.def(a0);
            break;
          case cluster::envcall::kCoreCount:
            ops.def(a0);
            break;
          default:  // unknown service: assume it clobbers a0
            ops.def(a0);
            break;
        }
      } else {
        switch (ecall_a7) {
          case 93:  // exit(a0)
            ops.use(a0);
            break;
          case 64:  // write(a0, a1)
            ops.use(a0);
            ops.use(a0 + 1);
            break;
          default:  // host syscall bridge / custom handler
            ops.def(a0);
            break;
        }
      }
      break;
    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc:
      ops.use(rs1);
      ops.def(rd);
      break;
    case Op::kCsrrwi:
    case Op::kCsrrsi:
    case Op::kCsrrci:
      ops.def(rd);
      break;

    // ---- F/D ----
    case Op::kFlw:
    case Op::kFld:
      ops.use(rs1);
      ops.def(frd);
      break;
    case Op::kFsw:
    case Op::kFsd:
      ops.use(rs1);
      ops.use(frs2);
      break;
    case Op::kFaddS:
    case Op::kFsubS:
    case Op::kFmulS:
    case Op::kFdivS:
    case Op::kFsgnjS:
    case Op::kFsgnjnS:
    case Op::kFsgnjxS:
    case Op::kFminS:
    case Op::kFmaxS:
    case Op::kFaddD:
    case Op::kFsubD:
    case Op::kFmulD:
    case Op::kFdivD:
    case Op::kFsgnjD:
    case Op::kFsgnjnD:
    case Op::kFsgnjxD:
      ops.use(frs1);
      ops.use(frs2);
      ops.def(frd);
      break;
    case Op::kFsqrtS:
    case Op::kFcvtDS:
    case Op::kFcvtSD:
      ops.use(frs1);
      ops.def(frd);
      break;
    case Op::kFmaddS:
    case Op::kFmsubS:
    case Op::kFmaddD:
    case Op::kFmsubD:
      ops.use(frs1);
      ops.use(frs2);
      ops.use(frs3);
      ops.def(frd);
      break;
    case Op::kFeqS:
    case Op::kFltS:
    case Op::kFleS:
    case Op::kFeqD:
    case Op::kFltD:
    case Op::kFleD:
      ops.use(frs1);
      ops.use(frs2);
      ops.def(rd);
      break;
    case Op::kFcvtWS:
    case Op::kFcvtLS:
    case Op::kFcvtWD:
    case Op::kFcvtLD:
    case Op::kFmvXW:
    case Op::kFmvXD:
      ops.use(frs1);
      ops.def(rd);
      break;
    case Op::kFcvtSW:
    case Op::kFcvtSL:
    case Op::kFcvtDW:
    case Op::kFcvtDL:
    case Op::kFmvWX:
    case Op::kFmvDX:
      ops.use(rs1);
      ops.def(frd);
      break;

    // ---- Xpulp ----
    case Op::kLpStarti:
    case Op::kLpEndi:
    case Op::kLpCounti:
      break;  // rd is the loop index, not a register
    case Op::kLpCount:
    case Op::kLpSetup:
      ops.use(rs1);
      break;
    case Op::kPLbPost:
    case Op::kPLbuPost:
    case Op::kPLhPost:
    case Op::kPLhuPost:
    case Op::kPLwPost:
      ops.use(rs1);
      ops.def(rd);
      ops.def(rs1);
      break;
    case Op::kPSbPost:
    case Op::kPShPost:
    case Op::kPSwPost:
      ops.use(rs1);
      ops.use(rs2);
      ops.def(rs1);
      break;
    case Op::kPMac:
    case Op::kPMsu:
      ops.use(rs1);
      ops.use(rs2);
      ops.use(rd);
      ops.def(rd);
      break;
    case Op::kPAbs:
    case Op::kPClip:
    case Op::kPExths:
    case Op::kPExthz:
    case Op::kPExtbs:
    case Op::kPExtbz:
      ops.use(rs1);
      ops.def(rd);
      break;
    case Op::kPMin:
    case Op::kPMax:
    case Op::kPvAddB:
    case Op::kPvAddH:
    case Op::kPvSubB:
    case Op::kPvSubH:
    case Op::kPvMinB:
    case Op::kPvMinH:
    case Op::kPvMaxB:
    case Op::kPvMaxH:
    case Op::kPvSraH:
    case Op::kPvDotspB:
    case Op::kPvDotspH:
      ops.use(rs1);
      ops.use(rs2);
      ops.def(rd);
      break;
    case Op::kPvSdotspB:
    case Op::kPvSdotspH:
      ops.use(rs1);
      ops.use(rs2);
      ops.use(rd);
      ops.def(rd);
      break;
    case Op::kPvSdotspBMem:
    case Op::kPvSdotspHMem:
      ops.use(rs1);
      ops.use(rs2);
      ops.use(rd);
      ops.def(rd);
      ops.def(rs1);
      break;
    case Op::kVfaddH:
    case Op::kVfsubH:
    case Op::kVfmulH:
    case Op::kVfcvtHS:
      ops.use(frs1);
      ops.use(frs2);
      ops.def(frd);
      break;
    case Op::kVfmacH:
    case Op::kVfdotpexSH:
      ops.use(frs1);
      ops.use(frs2);
      ops.use(frd);
      ops.def(frd);
      break;
    case Op::kOpCount:
      break;
  }
  return ops;
}

Cfg build_cfg(std::span<const u32> words, Addr base, IsaProfile profile,
              Sink& sink) {
  Cfg cfg;
  cfg.program.base = base;
  cfg.program.instrs.reserve(words.size());
  for (const u32 word : words) {
    cfg.program.instrs.push_back(isa::decode(word));
  }
  const Program& program = cfg.program;
  const size_t n = program.instrs.size();
  if (n == 0) return cfg;

  // Join points: in-image targets of direct branches and jumps.
  std::vector<bool> is_target(n, false);
  for (size_t i = 0; i < n; ++i) {
    const Instr& in = program.instrs[i];
    if (!has_direct_target(in.op)) continue;
    const Addr target = program.addr_of(i) + in.imm;
    if (program.contains(target) && target % 4 == 0) {
      is_target[program.index_of(target)] = true;
    }
  }

  // Hardware loops (only meaningful for the cluster profile; a host
  // image containing lp.* ops gets wrong-isa diagnostics instead).
  // Collected before a7 resolution: a loop's back edge lands on its
  // start address, which makes the start a join point the backscan
  // must not resolve through — an a7 definition before the loop does
  // not dominate an ecall in the body when the body redefines a7.
  if (profile == IsaProfile::kClusterRv32) {
    cfg.loops = collect_loops(program, sink);
    for (const HwLoopInfo& loop : cfg.loops) {
      if (loop.valid) is_target[program.index_of(loop.start)] = true;
    }
  }

  // Static a7 at each ecall (exit detection + envcall argument model).
  cfg.ecall_a7.assign(n, -1);
  for (size_t i = 0; i < n; ++i) {
    if (program.instrs[i].op == Op::kEcall) {
      cfg.ecall_a7[i] = resolve_ecall_a7(program, is_target, i, profile);
    }
  }

  // Basic-block leaders.
  std::vector<bool> leader(n, false);
  leader[0] = true;
  for (size_t i = 0; i < n; ++i) {
    if (is_target[i]) leader[i] = true;
    const Instr& in = program.instrs[i];
    const bool ends_block =
        isa::is_branch(in.op) || in.op == Op::kJal || in.op == Op::kJalr ||
        in.op == Op::kEbreak || in.op == Op::kIllegal ||
        is_exit_ecall(cfg, i, profile);
    if (ends_block && i + 1 < n) leader[i + 1] = true;
  }
  for (const HwLoopInfo& loop : cfg.loops) {
    if (!loop.valid) continue;
    leader[program.index_of(loop.start)] = true;
    if (loop.end < program.end()) leader[program.index_of(loop.end)] = true;
  }

  cfg.block_of.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (leader[i]) {
      cfg.blocks.push_back({i, i, {}, SIZE_MAX, false, false, false});
    }
    Block& block = cfg.blocks.back();
    block.last = i;
    cfg.block_of[i] = cfg.blocks.size() - 1;
  }

  // Successor edges.
  const auto block_at = [&](Addr addr) { return cfg.block_of[program.index_of(addr)]; };
  for (size_t b = 0; b < cfg.blocks.size(); ++b) {
    Block& block = cfg.blocks[b];
    const size_t t = block.last;
    const Instr& in = program.instrs[t];
    const Addr pc = program.addr_of(t);
    const auto add_fall = [&] {
      if (t + 1 < n) {
        block.fall_succ = block.succs.size();
        block.succs.push_back(cfg.block_of[t + 1]);
      } else {
        block.off_end = true;
      }
    };
    const auto add_target = [&] {
      const Addr target = pc + in.imm;
      if (program.contains(target) && target % 4 == 0) {
        block.succs.push_back(cfg.block_of[program.index_of(target)]);
      }
    };
    if (isa::is_branch(in.op)) {
      add_target();
      add_fall();
    } else if (in.op == Op::kJal) {
      add_target();
      if (in.rd != 0) {  // call: the callee's ret resumes after it
        block.is_call = true;
        add_fall();
      }
    } else if (in.op == Op::kJalr) {
      if (is_return(in)) {
        // ret: control resumes at some call site's fall-through.
      } else if (in.rd != 0) {
        block.is_call = true;  // indirect call
        cfg.has_indirect = true;
        add_fall();
      } else {
        cfg.has_indirect = true;  // indirect tail jump
      }
    } else if (in.op == Op::kEbreak || in.op == Op::kIllegal ||
               is_exit_ecall(cfg, t, profile)) {
      // Terminators: nothing runs after them.
    } else {
      add_fall();
    }
  }

  // Hardware-loop back edges: the loop fires when control falls onto
  // `end` — from the body's last instruction, or from a body branch
  // targeting `end` (a loop "continue").
  for (const HwLoopInfo& loop : cfg.loops) {
    if (!loop.valid) continue;
    const size_t start_block = block_at(loop.start);
    const size_t tail = program.index_of(loop.end) - 1;
    Block& tail_block = cfg.blocks[cfg.block_of[tail]];
    if (tail_block.fall_succ != SIZE_MAX || tail_block.off_end) {
      tail_block.succs.push_back(start_block);
    }
    for (size_t i = program.index_of(loop.start); i <= tail; ++i) {
      const Instr& in = program.instrs[i];
      if (!has_direct_target(in.op)) continue;
      if (program.addr_of(i) + in.imm == loop.end) {
        cfg.blocks[cfg.block_of[i]].succs.push_back(start_block);
      }
    }
  }

  // Reachability from the entry point.
  std::vector<size_t> work{0};
  cfg.blocks[0].reachable = true;
  while (!work.empty()) {
    const size_t b = work.back();
    work.pop_back();
    for (const size_t s : cfg.blocks[b].succs) {
      if (!cfg.blocks[s].reachable) {
        cfg.blocks[s].reachable = true;
        work.push_back(s);
      }
    }
  }

  // ---- structural diagnostics (reachable code only) ----
  for (const Block& block : cfg.blocks) {
    if (!block.reachable) continue;
    for (size_t i = block.first; i <= block.last; ++i) {
      const Instr& in = program.instrs[i];
      const Addr pc = program.addr_of(i);
      if (in.op == Op::kIllegal) {
        std::ostringstream os;
        os << "word 0x" << std::hex << in.raw << " does not decode";
        sink.add(Diag::kIllegalInstruction, pc, os.str());
        continue;
      }
      if (!op_in_profile(in.op, profile)) {
        sink.add(Diag::kWrongIsa, pc,
                 "'" + std::string(isa::mnemonic(in.op)) +
                     (profile == IsaProfile::kClusterRv32
                          ? "' is not executable by the PMCA (RV64/D is "
                            "host-only)"
                          : "' is not executable by the host (Xpulp is "
                            "PMCA-only)"));
      }
      if (has_direct_target(in.op)) {
        const Addr target = pc + in.imm;
        if (target % 4 != 0) {
          sink.add(Diag::kMisalignedTarget, pc,
                   "control transfer to misaligned address 0x" +
                       hex(target));
        } else if (!program.contains(target)) {
          sink.add(Diag::kBranchOutOfImage, pc,
                   "control transfer to 0x" + hex(target) +
                       " outside the image [0x" + hex(program.base) +
                       ", 0x" + hex(program.end()) + ")");
        }
      }
      if (in.op == Op::kEcall && profile == IsaProfile::kClusterRv32 &&
          cfg.ecall_a7[i] > static_cast<i64>(cluster::envcall::kCoreCount)) {
        sink.add(Diag::kUnknownEnvcall, pc,
                 "ecall with unsupported PMCA service id " +
                     std::to_string(cfg.ecall_a7[i]));
      }
      if (in.op == Op::kLpCounti && in.imm < 1) {
        sink.add(Diag::kHwLoopBadCount, pc,
                 "hardware-loop count " + std::to_string(in.imm) +
                     " must be >= 1");
      }
    }
    if (block.off_end) {
      const Instr& last = program.instrs[block.last];
      if (last.op == Op::kEcall && cfg.ecall_a7[block.last] < 0) {
        // The service id could not be resolved (branch target, a7
        // defined across a join, ...); the ecall may well be an exit,
        // so don't reject the program outright.
        sink.add(Diag::kMaybeFallThroughEnd, program.addr_of(block.last),
                 "trailing ecall with a statically-unknown service id: "
                 "execution falls off the image unless it exits");
      } else {
        sink.add(Diag::kFallThroughEnd, program.addr_of(block.last),
                 "execution falls through the end of the image without an "
                 "exit");
      }
    }
  }

  if (!cfg.has_indirect) {
    for (const Block& block : cfg.blocks) {
      if (block.reachable) continue;
      sink.add(Diag::kUnreachableBlock, program.addr_of(block.first),
               "basic block is unreachable from the entry point");
    }
  }

  // ---- hardware-loop legality over the final CFG ----
  LoopChecker checker{cfg, profile, sink};
  for (const HwLoopInfo& loop : cfg.loops) {
    if (!loop.valid || !checker.setup_reachable(loop)) continue;
    checker.check_body_edges(loop);
  }
  checker.check_nesting(cfg.loops);

  return cfg;
}

}  // namespace hulkv::analysis
