#include "isa/threaded.hpp"

#include "common/types.hpp"
#include "isa/block_cache.hpp"

namespace hulkv::isa::threaded {

void lower(const DecodedBlock& block, const Lowering& how,
           ThreadedBlock* out) {
  out->code.clear();
  out->code.reserve(block.instrs.size());
  out->control_tail = false;
  for (size_t i = 0; i < block.instrs.size(); ++i) {
    const Instr& in = block.instrs[i];
    const HandlerInfo info = how.resolve(in.op, how.ctx);
    ThreadedInstr t;
    t.fn = info.fn;
    t.rd = in.rd;
    t.rs1 = in.rs1;
    t.rs2 = in.rs2;
    t.rs3 = in.rs3;
    t.imm = in.imm;
    t.cyc = info.static_cycles;
    t.pc = block.start + 4 * i;
    if (i == 0) {
      t.flags |= kFlagLineCheck;
    } else if (t.pc % how.line_bytes == 0) {
      // Provably entering a new fetch line: within a straight-line run
      // the line register only ever advances, so the compare a core's
      // fetch_timing does is statically true here.
      t.flags |= kFlagLineEntry;
    }
    if (info.fn == nullptr) t.flags |= kFlagTrap;
    if (how.want_shared && ((block.shared_mask >> i) & 1) != 0) {
      t.flags |= kFlagShared;
    }
    out->code.push_back(t);
  }
  if (!block.instrs.empty()) {
    const Op tail = block.instrs.back().op;
    const bool is_control =
        tail == Op::kJal || tail == Op::kJalr || is_branch(tail);
    out->control_tail =
        is_control && (out->code.back().flags & kFlagTrap) == 0;
  }
}

}  // namespace hulkv::isa::threaded
