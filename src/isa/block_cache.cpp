#include "isa/block_cache.hpp"

#include <algorithm>
#include <utility>

#include "common/types.hpp"
#include "isa/decoder.hpp"
#include "telemetry/telemetry.hpp"

namespace hulkv::isa {

BlockCache::BlockCache(ReadWord read_word)
    : read_word_(std::move(read_word)) {}

bool BlockCache::ends_block(Op op) {
  switch (op) {
    case Op::kJal:
    case Op::kJalr:
    case Op::kEcall:
    case Op::kEbreak:
    case Op::kWfi:
    case Op::kIllegal:
      return true;
    default:
      return is_branch(op);
  }
}

void BlockCache::invalidate() {
  ++generation_;
  last_ = nullptr;
  span_lo_ = ~0ull;
  span_hi_ = 0;
}

void BlockCache::invalidate_range(Addr base, u64 bytes) {
  if (bytes == 0 || span_lo_ >= span_hi_) return;
  const Addr end = base + bytes;
  if (end <= span_lo_ || base >= span_hi_) return;  // disjoint: keep blocks
  invalidate();
}

DecodedBlock& BlockCache::lookup_slow(Addr pc) {
  DecodedBlock& block = blocks_[pc];
  if (block.generation != generation_) translate(block, pc);
  last_ = &block;
  return block;
}

namespace {
/// True when executing `op` may touch state shared between cores:
/// memory accesses (TCDM banks, AXI port, DRAM model) and the
/// environment-call / trap ops (ecall handlers reach the event unit and
/// DMA; traps must surface in global time order). The fused MAC-&-load
/// ops go through the LSU port too but are not in `is_load` (they are
/// primarily SIMD ops), so they are listed explicitly — missing a
/// memory op here reorders bank-conflict arbitration under run-ahead.
bool touches_shared_state(Op op) {
  switch (op) {
    case Op::kEcall:
    case Op::kEbreak:
    case Op::kWfi:
    case Op::kIllegal:
    case Op::kPvSdotspBMem:
    case Op::kPvSdotspHMem:
      return true;
    default:
      return is_load(op) || is_store(op);
  }
}
}  // namespace

void BlockCache::translate(DecodedBlock& block, Addr pc) {
  // Telemetry sits on the translate (slow) path only — the per-retire
  // fast path stays a pointer compare.
  const telemetry::Span span(telemetry::SpanPhase::kBlockTranslate);
  block.start = pc;
  block.instrs.clear();
  block.shared_mask = 0;
  Addr p = pc;
  for (size_t i = 0; i < kMaxBlockInstrs; ++i) {
    u32 word = 0;
    if (i == 0) {
      word = read_word_(p);  // a fault here is the caller's fetch fault
    } else {
      try {
        word = read_word_(p);
      } catch (const SimError&) {
        break;  // code runs off the mapped region: end the block before it
      }
    }
    const Instr instr = decode(word);
    if (touches_shared_state(instr.op)) block.shared_mask |= u64{1} << i;
    block.instrs.push_back(instr);
    if (ends_block(instr.op)) break;
    p += 4;
  }
  block.generation = generation_;
  ++translations_;
  span_lo_ = std::min(span_lo_, pc);
  span_hi_ = std::max(span_hi_, p + 4);
}

}  // namespace hulkv::isa
