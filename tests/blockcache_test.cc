// Decoded-block cache, memory fast paths and the cluster core scheduler:
//  * isa::BlockCache translation/memoization/invalidation semantics,
//  * self-modifying-code behaviour on both ISS cores (stale blocks are
//    never executed after an explicit invalidation; guest stores alone
//    do NOT invalidate — unchanged from the per-instruction caches),
//  * decode-cache state never affects timing (cycle counts equal a
//    cold-cache run),
//  * mem::BackingStore's direct-mapped page-pointer cache,
//  * cluster::CoreScheduler packed-key order vs the naive min-scan.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/sched.hpp"
#include "core/soc.hpp"
#include "isa/assembler.hpp"
#include "isa/block_cache.hpp"
#include "kernels/kernel.hpp"
#include "mem/backing_store.hpp"

namespace hulkv {
namespace {

using isa::Assembler;
using isa::BlockCache;
using isa::Op;
using namespace isa::reg;

core::SocConfig fast_config() {
  core::SocConfig cfg;
  cfg.main_memory = core::MainMemoryKind::kDdr4;
  return cfg;
}

constexpr Addr kTcdm = mem::map::kTcdmBase;
constexpr Addr kKernelL2 = mem::map::kL2Base;

// ---------------------------------------------------------------------
// BlockCache unit tests (standalone, backed by an in-memory word array)
// ---------------------------------------------------------------------

/// A BlockCache over an assembled program at `base`; reads outside the
/// program throw like an unmapped bus access would.
struct TestProgram {
  explicit TestProgram(Addr base) : base_(base) {}

  std::vector<u32> words;
  Addr base_;

  BlockCache make_cache() {
    return BlockCache([this](Addr pc) {
      const u64 index = (pc - base_) / 4;
      if (pc < base_ || index >= words.size()) {
        throw SimError("fetch outside program");
      }
      return words[index];
    });
  }
};

TEST(BlockCache, TranslatesUntilControlFlow) {
  TestProgram prog(0x1000);
  Assembler a(0x1000, /*rv64=*/false);
  a.addi(t0, t0, 1);
  a.addi(t1, t1, 2);
  a.bnez(t0, "done");  // ends the block
  a.addi(t2, t2, 3);   // next block
  a.label("done");
  a.ecall();
  prog.words = a.assemble();

  BlockCache cache = prog.make_cache();
  const isa::DecodedBlock& b = cache.block_at(0x1000);
  ASSERT_EQ(b.instrs.size(), 3u);
  EXPECT_EQ(b.start, 0x1000u);
  EXPECT_EQ(b.instrs[0].op, Op::kAddi);
  EXPECT_EQ(b.instrs[2].op, Op::kBne);
  EXPECT_EQ(cache.translations(), 1u);
}

TEST(BlockCache, EndsBlockOps) {
  EXPECT_TRUE(BlockCache::ends_block(Op::kJal));
  EXPECT_TRUE(BlockCache::ends_block(Op::kJalr));
  EXPECT_TRUE(BlockCache::ends_block(Op::kBeq));
  EXPECT_TRUE(BlockCache::ends_block(Op::kEcall));
  EXPECT_TRUE(BlockCache::ends_block(Op::kEbreak));
  EXPECT_TRUE(BlockCache::ends_block(Op::kWfi));
  EXPECT_TRUE(BlockCache::ends_block(Op::kIllegal));
  EXPECT_FALSE(BlockCache::ends_block(Op::kAddi));
  EXPECT_FALSE(BlockCache::ends_block(Op::kLw));
  EXPECT_FALSE(BlockCache::ends_block(Op::kMul));
}

TEST(BlockCache, MemoAndMapHitsDoNotRetranslate) {
  TestProgram prog(0x2000);
  Assembler a(0x2000, /*rv64=*/false);
  a.addi(t0, t0, 1);
  a.ecall();
  a.addi(t1, t1, 1);  // second block
  a.ecall();
  prog.words = a.assemble();

  BlockCache cache = prog.make_cache();
  cache.block_at(0x2000);
  cache.block_at(0x2000);  // memo hit
  EXPECT_EQ(cache.translations(), 1u);
  cache.block_at(0x2008);  // different block
  cache.block_at(0x2000);  // map hit after memo switched away
  EXPECT_EQ(cache.translations(), 2u);
  EXPECT_EQ(cache.cached_blocks(), 2u);
}

TEST(BlockCache, InvalidateBumpsGenerationAndRetranslates) {
  TestProgram prog(0x3000);
  Assembler a(0x3000, /*rv64=*/false);
  a.addi(t0, t0, 1);
  a.ecall();
  prog.words = a.assemble();

  BlockCache cache = prog.make_cache();
  cache.block_at(0x3000);
  const u64 gen = cache.generation();

  // Rewrite the first instruction and invalidate: the stale decode must
  // never be served again.
  Assembler b(0x3000, /*rv64=*/false);
  b.addi(t0, t0, 42);
  b.ecall();
  prog.words = b.assemble();
  cache.invalidate();
  EXPECT_GT(cache.generation(), gen);

  const isa::DecodedBlock& blk = cache.block_at(0x3000);
  EXPECT_EQ(cache.translations(), 2u);
  EXPECT_EQ(blk.instrs[0].imm, 42);
}

TEST(BlockCache, RangedInvalidateSkipsDisjointWrites) {
  TestProgram prog(0x4000);
  Assembler a(0x4000, /*rv64=*/false);
  a.addi(t0, t0, 1);
  a.ecall();
  prog.words = a.assemble();

  BlockCache cache = prog.make_cache();
  cache.block_at(0x4000);
  const u64 gen = cache.generation();

  // Disjoint writes (below and above the translated span): no-ops.
  cache.invalidate_range(0x1000, 0x100);
  cache.invalidate_range(0x5000, 0x100);
  EXPECT_EQ(cache.generation(), gen);
  cache.block_at(0x4000);
  EXPECT_EQ(cache.translations(), 1u);

  // Overlapping write (last byte touches the span): invalidates.
  cache.invalidate_range(0x4000 - 16, 17);
  EXPECT_GT(cache.generation(), gen);
  cache.block_at(0x4000);
  EXPECT_EQ(cache.translations(), 2u);
}

TEST(BlockCache, LongRunsSplitAtMaxBlockInstrs) {
  TestProgram prog(0x5000);
  Assembler a(0x5000, /*rv64=*/false);
  for (int i = 0; i < 100; ++i) a.addi(t0, t0, 1);
  a.ecall();
  prog.words = a.assemble();

  BlockCache cache = prog.make_cache();
  const isa::DecodedBlock& first = cache.block_at(0x5000);
  EXPECT_EQ(first.instrs.size(), BlockCache::kMaxBlockInstrs);
  const Addr next = 0x5000 + 4 * BlockCache::kMaxBlockInstrs;
  const isa::DecodedBlock& second = cache.block_at(next);
  EXPECT_EQ(second.instrs.size(), 100 - BlockCache::kMaxBlockInstrs + 1);
}

TEST(BlockCache, FaultOnLaterWordEndsBlock) {
  TestProgram prog(0x6000);
  Assembler a(0x6000, /*rv64=*/false);
  a.addi(t0, t0, 1);
  a.addi(t0, t0, 2);  // last mapped word; translate-ahead faults after it
  prog.words = a.assemble();

  BlockCache cache = prog.make_cache();
  const isa::DecodedBlock& b = cache.block_at(0x6000);
  EXPECT_EQ(b.instrs.size(), 2u);
  // A fault on the *first* word still propagates.
  EXPECT_THROW(cache.block_at(0x9000), SimError);
}

TEST(BlockCache, SharedMaskMarksMemoryAndTrapOps) {
  // Loads, stores and trap ops may touch state shared between cores;
  // ALU ops may not. The exit ecall keeps its bit although the analyzer
  // proves it core-local: analyzer facts never reach the cache.
  TestProgram prog(0x7000);
  Assembler a(0x7000, /*rv64=*/false);
  a.addi(t0, t0, 1);
  a.lw(t1, 0, a0);
  a.sw(t1, 4, a0);
  a.li(a7, cluster::envcall::kExit);
  a.ecall();
  prog.words = a.assemble();

  BlockCache cache = prog.make_cache();
  const isa::DecodedBlock& b = cache.block_at(0x7000);
  ASSERT_EQ(b.instrs.size(), prog.words.size());
  const u64 ecall_bit = u64{1} << (b.instrs.size() - 1);
  EXPECT_EQ(b.shared_mask, u64{0b110} | ecall_bit);
}

// ---------------------------------------------------------------------
// Self-modifying code and invalidation semantics on the two ISS cores
// ---------------------------------------------------------------------

TEST(DecodeInvalidation, HostLoadProgramAfterRunExecutesNewCode) {
  core::HulkVSoc soc(fast_config());
  auto make = [](i64 value) {
    Assembler a(core::layout::kHostCodeBase, /*rv64=*/true);
    a.li(a0, value);
    a.li(a7, 93);
    a.ecall();
    return a.assemble();
  };
  EXPECT_EQ(kernels::run_host_program(soc, make(1), {}).exit_code, 1u);
  // load_program over the same range invalidates; the stale block for
  // the old image must never execute.
  EXPECT_EQ(kernels::run_host_program(soc, make(2), {}).exit_code, 2u);
}

TEST(DecodeInvalidation, HostGuestStoresNeedExplicitInvalidate) {
  core::HulkVSoc soc(fast_config());
  auto make = [](i64 value) {
    Assembler a(core::layout::kHostCodeBase, /*rv64=*/true);
    a.li(a0, value);
    a.li(a7, 93);
    a.ecall();
    return a.assemble();
  };
  EXPECT_EQ(kernels::run_host_program(soc, make(1), {}).exit_code, 1u);

  // Overwrite the image *without* load_program: decoded blocks are
  // intentionally stale (same contract as the per-instruction cache).
  const std::vector<u32> v2 = make(2);
  soc.write_mem(core::layout::kHostCodeBase, v2.data(), v2.size() * 4);
  auto rerun = [&] {
    soc.host().set_reg(sp, core::layout::kHostStackTop - 64);
    soc.host().set_pc(core::layout::kHostCodeBase);
    return soc.host().run();
  };
  EXPECT_EQ(rerun().exit_code, 1u);  // stale decode still live
  soc.host().invalidate_decode_cache();
  EXPECT_EQ(rerun().exit_code, 2u);  // explicit invalidate picks up v2
}

TEST(DecodeInvalidation, HostCacheStateNeverAffectsCycles) {
  core::HulkVSoc soc(fast_config());
  Assembler a(core::layout::kHostCodeBase, /*rv64=*/true);
  a.li(t0, 200);
  a.li(a0, 0);
  a.label("loop");
  a.addi(a0, a0, 3);
  a.addi(t0, t0, -1);
  a.bnez(t0, "loop");
  a.li(a7, 93);
  a.ecall();
  soc.load_program(core::layout::kHostCodeBase, a.assemble());

  auto run_once = [&] {
    soc.host().set_reg(sp, core::layout::kHostStackTop - 64);
    soc.host().set_pc(core::layout::kHostCodeBase);
    return soc.host().run();
  };
  run_once();                    // cold I-cache, cold decode
  const auto warm = run_once();  // warm I-cache, warm decode
  soc.host().invalidate_decode_cache();
  const auto cold_decode = run_once();  // warm I-cache, cold decode
  EXPECT_EQ(warm.cycles, cold_decode.cycles);
  EXPECT_EQ(warm.instret, cold_decode.instret);
}

TEST(DecodeInvalidation, RangedInvalidationKeepsDisjointHostBlocks) {
  core::HulkVSoc soc(fast_config());
  Assembler a(core::layout::kHostCodeBase, /*rv64=*/true);
  a.li(a0, 7);
  a.li(a7, 93);
  a.ecall();
  kernels::run_host_program(soc, a.assemble(), {});
  const u64 translations = soc.host().decode_blocks().translations();
  const u64 gen = soc.host().decode_blocks().generation();

  // Loading a cluster kernel into L2 must not drop the host's decoded
  // blocks: the ranges are disjoint.
  Assembler k(0, /*rv64=*/false);
  k.li(a7, cluster::envcall::kExit);
  k.ecall();
  soc.load_program(kKernelL2, k.assemble());
  EXPECT_EQ(soc.host().decode_blocks().generation(), gen);

  // Re-running the host program reuses the cached blocks.
  soc.host().set_reg(sp, core::layout::kHostStackTop - 64);
  soc.host().set_pc(core::layout::kHostCodeBase);
  EXPECT_EQ(soc.host().run().exit_code, 7u);
  EXPECT_EQ(soc.host().decode_blocks().translations(), translations);
}

/// Assemble a one-core-visible cluster kernel that stores `value` to
/// TCDM word 0 and exits.
std::vector<u32> store_kernel(u32 value) {
  Assembler a(0, /*rv64=*/false);
  a.li(t0, static_cast<i64>(kTcdm));
  a.li(t1, value);
  a.sw(t1, 0, t0);
  a.li(a7, cluster::envcall::kExit);
  a.ecall();
  return a.assemble();
}

u32 tcdm_word(core::HulkVSoc& soc, u32 offset) {
  u32 v = 0;
  std::memcpy(&v, soc.cluster().tcdm().storage().data() + offset, 4);
  return v;
}

TEST(DecodeInvalidation, ClusterLoadProgramAfterRunExecutesNewCode) {
  core::HulkVSoc soc(fast_config());
  soc.load_program(kKernelL2, store_kernel(1));
  const auto r1 = soc.cluster().run_kernel(0, kKernelL2, 0, 1);
  EXPECT_EQ(tcdm_word(soc, 0), 1u);

  soc.load_program(kKernelL2, store_kernel(2));
  // Dispatch at the previous finish so all core clocks align exactly as
  // they did at cycle 0: any cycle difference would be decode-cache
  // state leaking into timing.
  const auto r2 = soc.cluster().run_kernel(r1.finish, kKernelL2, 0, 1);
  EXPECT_EQ(tcdm_word(soc, 0), 2u);
  EXPECT_EQ(r1.cycles, r2.cycles);  // equals the cold-cache run
  EXPECT_EQ(r1.instret, r2.instret);
}

TEST(DecodeInvalidation, ClusterGuestStoresNeedExplicitInvalidate) {
  core::HulkVSoc soc(fast_config());
  soc.load_program(kKernelL2, store_kernel(1));
  auto r = soc.cluster().run_kernel(0, kKernelL2, 0, 1);
  EXPECT_EQ(tcdm_word(soc, 0), 1u);

  // Rewrite the kernel image behind the cluster's back.
  const std::vector<u32> v2 = store_kernel(2);
  soc.write_mem(kKernelL2, v2.data(), v2.size() * 4);
  r = soc.cluster().run_kernel(r.finish, kKernelL2, 0, 1);
  EXPECT_EQ(tcdm_word(soc, 0), 1u);  // stale decode still live

  soc.cluster().on_code_loaded(kKernelL2, v2.size() * 4);
  soc.cluster().run_kernel(r.finish, kKernelL2, 0, 1);
  EXPECT_EQ(tcdm_word(soc, 0), 2u);
}

TEST(DecodeInvalidation, ClusterRangedInvalidationSkipsDisjointRanges) {
  core::HulkVSoc soc(fast_config());
  soc.load_program(kKernelL2, store_kernel(1));
  const auto r = soc.cluster().run_kernel(0, kKernelL2, 0, 1);
  const u64 gen = soc.cluster().core(0).decode_blocks().generation();
  const u64 translations =
      soc.cluster().core(0).decode_blocks().translations();

  // A code load far away (second L2 image slot) leaves core 0's decoded
  // kernel intact.
  soc.load_program(kKernelL2 + 0x10000, store_kernel(3));
  EXPECT_EQ(soc.cluster().core(0).decode_blocks().generation(), gen);

  soc.cluster().run_kernel(r.finish, kKernelL2, 0, 1);
  EXPECT_EQ(soc.cluster().core(0).decode_blocks().translations(),
            translations);
  EXPECT_EQ(tcdm_word(soc, 0), 1u);
}

// ---------------------------------------------------------------------
// BackingStore page-pointer cache
// ---------------------------------------------------------------------

TEST(BackingStorePtrCache, RepeatedAccessHitsCache) {
  mem::BackingStore store;
  store.store<u32>(0x1000, 0xDEADBEEF);  // materialises the page
  const u64 misses = store.ptr_cache_misses();
  const u64 hits = store.ptr_cache_hits();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(store.load<u32>(0x1000 + 4 * i), i == 0 ? 0xDEADBEEF : 0u);
  }
  EXPECT_EQ(store.ptr_cache_hits(), hits + 10);
  EXPECT_EQ(store.ptr_cache_misses(), misses);
}

TEST(BackingStorePtrCache, AbsentPageReadsZeroThenMaterialises) {
  mem::BackingStore store;
  // First read of an untouched page: slow path, caches "absent".
  EXPECT_EQ(store.load<u64>(0x40000), 0u);
  EXPECT_EQ(store.resident_pages(), 0u);
  // Second read: fast path serves the zero-fill from the absent slot.
  const u64 hits = store.ptr_cache_hits();
  EXPECT_EQ(store.load<u64>(0x40008), 0u);
  EXPECT_EQ(store.ptr_cache_hits(), hits + 1);
  EXPECT_EQ(store.resident_pages(), 0u);
  // A write materialises the page and refreshes the slot.
  store.store<u64>(0x40010, 0x1234'5678'9ABC'DEF0ull);
  EXPECT_EQ(store.resident_pages(), 1u);
  EXPECT_EQ(store.load<u64>(0x40010), 0x1234'5678'9ABC'DEF0ull);
}

TEST(BackingStorePtrCache, CrossPageAccessFallsBackCorrectly) {
  mem::BackingStore store;
  const Addr boundary = mem::BackingStore::kPageBytes - 4;
  store.store<u64>(boundary, 0x1122'3344'5566'7788ull);  // spans 2 pages
  EXPECT_EQ(store.load<u64>(boundary), 0x1122'3344'5566'7788ull);
  EXPECT_EQ(store.load<u32>(boundary), 0x5566'7788u);
  EXPECT_EQ(store.load<u32>(mem::BackingStore::kPageBytes),
            0x1122'3344u);
  EXPECT_EQ(store.resident_pages(), 2u);
}

TEST(BackingStorePtrCache, ConflictingPagesEvictEachOther) {
  mem::BackingStore store;
  // Pages `kPtrCacheSlots` apart share a direct-mapped slot.
  const Addr stride =
      mem::BackingStore::kPageBytes * mem::BackingStore::kPtrCacheSlots;
  store.store<u32>(0x0, 1);
  store.store<u32>(stride, 2);
  store.store<u32>(2 * stride, 3);
  EXPECT_EQ(store.load<u32>(0x0), 1u);
  EXPECT_EQ(store.load<u32>(stride), 2u);
  EXPECT_EQ(store.load<u32>(2 * stride), 3u);
}

TEST(BackingStorePtrCache, ClearDropsContentsAndSlots) {
  mem::BackingStore store;
  store.store<u32>(0x2000, 0xAABBCCDD);
  EXPECT_EQ(store.load<u32>(0x2000), 0xAABBCCDDu);
  store.clear();
  EXPECT_EQ(store.resident_pages(), 0u);
  // Must not serve the stale page pointer.
  EXPECT_EQ(store.load<u32>(0x2000), 0u);
  store.store<u32>(0x2000, 0x11223344);
  EXPECT_EQ(store.load<u32>(0x2000), 0x11223344u);
}

// ---------------------------------------------------------------------
// CoreScheduler
// ---------------------------------------------------------------------

using cluster::CoreScheduler;

TEST(CoreScheduler, OrdersByCycleThenId) {
  CoreScheduler sched;
  sched.reset(4);
  sched.set(2, 100);
  sched.set(0, 100);
  sched.set(1, 50);
  sched.set(3, 200);
  CoreScheduler::Pick pick = sched.pick();
  EXPECT_EQ(CoreScheduler::id_of(pick.first), 1u);  // smallest cycle
  EXPECT_EQ(CoreScheduler::cycle_of(pick.first), 50u);
  sched.remove(1);
  pick = sched.pick();
  EXPECT_EQ(CoreScheduler::id_of(pick.first), 0u);  // tie at 100 -> lowest id
  EXPECT_EQ(pick.second, CoreScheduler::key(100, 2));
  sched.remove(0);
  sched.remove(2);
  pick = sched.pick();
  EXPECT_EQ(CoreScheduler::id_of(pick.first), 3u);
  EXPECT_EQ(pick.second, CoreScheduler::kIdle);  // alone: no limit
  sched.remove(3);
  EXPECT_EQ(sched.pick().first, CoreScheduler::kIdle);
  sched.remove(3);  // removing an absent id is a no-op
  EXPECT_FALSE(sched.contains(3));
  EXPECT_EQ(sched.pick().first, CoreScheduler::kIdle);
}

TEST(CoreScheduler, UpdateRepositionsBothWays) {
  CoreScheduler sched;
  sched.reset(3);
  sched.set(0, 10);
  sched.set(1, 20);
  sched.set(2, 30);
  sched.set(0, 40);  // min moves down
  EXPECT_EQ(CoreScheduler::id_of(sched.pick().first), 1u);
  sched.set(2, 5);  // bottom moves up
  EXPECT_EQ(sched.pick().first, CoreScheduler::key(5, 2));
  EXPECT_EQ(sched.pick().second, CoreScheduler::key(20, 1));
}

TEST(CoreScheduler, PackedKeyOrderIsCycleThenId) {
  // Equal cycles: the id alone decides, lowest first.
  EXPECT_LT(CoreScheduler::key(7, 0), CoreScheduler::key(7, 1));
  EXPECT_LT(CoreScheduler::key(7, 3), CoreScheduler::key(7, 4));
  // Id boundary: the largest id at a cycle sorts below id 0 one cycle
  // later, and the fields round-trip.
  constexpr u32 kTopId = CoreScheduler::kMaxCores - 1;
  EXPECT_LT(CoreScheduler::key(7, kTopId), CoreScheduler::key(8, 0));
  EXPECT_EQ(CoreScheduler::id_of(CoreScheduler::key(7, kTopId)), kTopId);
  EXPECT_EQ(CoreScheduler::cycle_of(CoreScheduler::key(7, kTopId)), 7u);
  // No key reaches the idle/no-limit sentinel.
  EXPECT_LT(CoreScheduler::key(CoreScheduler::kMaxCycle, kTopId),
            CoreScheduler::kIdle);
  EXPECT_EQ(CoreScheduler::cycle_of(
                CoreScheduler::key(CoreScheduler::kMaxCycle, kTopId)),
            CoreScheduler::kMaxCycle);

  // The scheduler at the largest core count it accepts.
  CoreScheduler sched;
  sched.reset(CoreScheduler::kMaxCores);
  sched.set(kTopId, 5);
  sched.set(0, 6);
  EXPECT_EQ(sched.pick().first, CoreScheduler::key(5, kTopId));
  EXPECT_EQ(sched.pick().second, CoreScheduler::key(6, 0));
  sched.set(kTopId, 6);  // tie at 6: id 0 first
  EXPECT_EQ(sched.pick().first, CoreScheduler::key(6, 0));
  EXPECT_EQ(sched.pick().second, CoreScheduler::key(6, kTopId));
}

TEST(CoreScheduler, RejectsCoreCountBeyondIdBits) {
  CoreScheduler sched;
  EXPECT_NO_THROW(sched.reset(CoreScheduler::kMaxCores));
  EXPECT_THROW(sched.reset(CoreScheduler::kMaxCores + 1), SimError);
}

TEST(CoreScheduler, FuzzMatchesNaiveScan) {
  constexpr u32 kCores = 8;
  CoreScheduler sched;
  sched.reset(kCores);
  std::optional<Cycles> naive[kCores];

  // Deterministic LCG; no library RNG needed.
  u64 rng = 0x9E3779B97F4A7C15ull;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<u32>(rng >> 33);
  };

  for (int iter = 0; iter < 20000; ++iter) {
    const u32 id = next() % kCores;
    if (next() % 4 == 0) {
      sched.remove(id);
      naive[id].reset();
    } else {
      const Cycles cycle = next() % 1000;
      sched.set(id, cycle);
      naive[id] = cycle;
    }

    // Naive lexicographic (cycle, id) min and runner-up.
    int best = -1, second = -1;
    for (u32 c = 0; c < kCores; ++c) {
      if (!naive[c].has_value()) continue;
      if (best < 0 || *naive[c] < *naive[best]) {
        second = best;
        best = static_cast<int>(c);
      } else if (second < 0 || *naive[c] < *naive[second]) {
        second = static_cast<int>(c);
      }
    }
    const CoreScheduler::Pick pick = sched.pick();
    ASSERT_EQ(pick.first == CoreScheduler::kIdle, best < 0);
    if (best >= 0) {
      ASSERT_EQ(CoreScheduler::id_of(pick.first), static_cast<u32>(best));
      ASSERT_EQ(CoreScheduler::cycle_of(pick.first), *naive[best]);
      if (second >= 0) {
        ASSERT_EQ(CoreScheduler::cycle_of(pick.second), *naive[second]);
        ASSERT_EQ(CoreScheduler::id_of(pick.second),
                  static_cast<u32>(second));
      } else {
        ASSERT_EQ(pick.second, CoreScheduler::kIdle);
      }
    }
    ASSERT_EQ(sched.contains(id), naive[id].has_value());
  }
}

}  // namespace
}  // namespace hulkv
