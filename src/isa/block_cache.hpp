// Decoded basic-block cache shared by the two instruction-set
// simulators (host Cva6Core, cluster PmcaCore).
//
// Both cores used to cache individual decoded instructions in an
// `unordered_map<Addr, Instr>`, paying one hash lookup per retired
// instruction. GVSoC-class simulators get their throughput by caching
// *straight-line runs*: translate once into a flat vector of pre-decoded
// instructions, then execute the run with a tight dispatch loop. This
// class provides exactly that:
//
//  * `block_at(pc)` returns the decoded block starting at `pc`,
//    translating it on first use. Translation reads instruction words
//    through the core's functional fetch path, stops at the first
//    control-flow instruction (branch, jal/jalr, ecall/ebreak, wfi,
//    illegal) or after kMaxBlockInstrs, and lowers the run into the
//    core's threaded code (threaded.hpp) with the lowering parameters
//    the core gave the cache when it was built. So a block carries one
//    generation tag for its decode and its lowering.
//  * Blocks are chained: each caches the block the dispatch loop went
//    to next, one link for falling through its end and one for leaving
//    it any other way. `follow(link, pc)` takes the link when it points
//    at the current translation of `pc`, and only otherwise probes the
//    map (DESIGN.md §10).
//  * Invalidation is a generation bump, not a clear()-and-rehash: stale
//    blocks are detected by generation mismatch and re-translated in
//    place on next dispatch. `invalidate_range()` additionally scopes
//    the bump to writes overlapping the span actually covered by
//    translated blocks, so rewriting one kernel image does not force
//    the other cached code regions to re-translate eagerly.
//
// Self-modifying-code semantics are unchanged from the per-instruction
// caches: guest stores do NOT auto-invalidate; callers must invalidate
// explicitly (HulkVSoc::load_program and Cluster::on_code_loaded do).
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "isa/instr.hpp"
#include "isa/threaded.hpp"

namespace hulkv::isa {

/// One translated straight-line run of pre-decoded instructions.
/// `instrs[i]` sits at address `start + 4 * i`; the block's fall-through
/// next PC is `start + 4 * instrs.size()` (precomputed by the dispatch
/// loops as a running sequential PC).
struct DecodedBlock {
  Addr start = 0;
  u64 generation = 0;  // 0 = never translated (generations start at 1)
  /// Threaded-code form (DESIGN.md §15), lowered by the translation
  /// that filled `instrs`: the dispatch loops run this, and only the
  /// trap path, the observed loops and the profiler read `instrs`.
  threaded::ThreadedBlock threaded;
  /// Successor links, written by the dispatch loops through
  /// BlockCache::follow: the block entered after leaving this one by
  /// falling through its end, and after leaving it any other way (a
  /// taken branch, a jump, a hardware-loop back edge). A link is only a
  /// hint: follow() takes it only when it is current, so a stale or
  /// wrong link costs one map probe and is never executed.
  DecodedBlock* fall_through = nullptr;
  DecodedBlock* taken = nullptr;
  /// Bit i set when `instrs[i]` may touch state shared between cores
  /// (loads/stores — TCDM banks, AXI, DRAM — and the environment-call /
  /// trap ops). Pure ALU and control-flow ops leave the bit clear; a
  /// multi-core scheduler may execute those ahead of its time horizon
  /// without perturbing cross-core resource-reservation order (see
  /// PmcaCore::run_slice). kMaxBlockInstrs == 64 makes this one word.
  u64 shared_mask = 0;
  std::vector<Instr> instrs;
};

class BlockCache {
 public:
  /// Upper bound on instructions per block; long straight-line code is
  /// simply split. Keeps worst-case translate-ahead (and the decode of
  /// never-executed garbage past a program's end) bounded.
  static constexpr size_t kMaxBlockInstrs = 64;

  /// Functional instruction-word fetch. May throw SimError for unmapped
  /// addresses: a fault on the block's first word propagates (same as a
  /// per-instruction fetch would); a fault on a later word ends the
  /// block there, and execution falling through re-faults at the real
  /// fetch of that address.
  using ReadWord = std::function<u32(Addr)>;

  /// `lowering` is the owning core's: its handler resolver (whose
  /// `ctx` must outlive the cache), fetch-line size and kFlagShared
  /// choice.
  BlockCache(ReadWord read_word, threaded::Lowering lowering);

  /// The decoded and lowered block starting at `pc`, translated on
  /// demand. The returned reference is stable until the cache is
  /// destroyed (values live in node-based map storage), but its
  /// contents are only valid for the current generation. Mutable
  /// because the dispatch loops write its successor links.
  DecodedBlock& block_at(Addr pc);

  /// The block at `pc`, reached through `link`, a successor link of the
  /// block the caller just left (or any slot the caller owns). When
  /// `link` points at a block whose `start` is `pc` and whose
  /// generation is current, that block is the map's node for `pc` and
  /// needs no translation, so it is exactly what block_at(pc) would
  /// return: follow returns it without a map probe. Otherwise it calls
  /// block_at(pc) and points `link` at the result.
  DecodedBlock& follow(DecodedBlock*& link, Addr pc) {
    DecodedBlock* next = link;
    if (next == nullptr || next->start != pc ||
        next->generation != generation_) {
      next = &block_at(pc);
      link = next;
    }
    return *next;
  }

  /// Drop every cached block: O(1) generation bump. Stale blocks
  /// re-translate in place on their next dispatch, and no successor
  /// link to one is followed.
  void invalidate();

  /// Invalidate only if [base, base+bytes) overlaps the address span
  /// covered by translated blocks; a write elsewhere is a no-op.
  void invalidate_range(Addr base, u64 bytes);

  u64 generation() const { return generation_; }
  /// Total translations performed (re-translations included) — lets
  /// tests assert that invalidation really dropped (or kept) blocks.
  u64 translations() const { return translations_; }
  size_t cached_blocks() const { return blocks_.size(); }

  /// True when `op` terminates a straight-line run.
  static bool ends_block(Op op);

 private:
  void translate(DecodedBlock& block, Addr pc);

  ReadWord read_word_;
  threaded::Lowering lowering_;
  std::unordered_map<Addr, DecodedBlock> blocks_;
  u64 generation_ = 1;
  u64 translations_ = 0;
  // Union of [start, end) over translated blocks, for ranged invalidation.
  Addr span_lo_ = ~0ull;
  Addr span_hi_ = 0;
};

}  // namespace hulkv::isa
