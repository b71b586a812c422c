// Threaded execution (DESIGN.md §15):
//  * handler-table coverage — every encodable op resolves to a handler
//    on at least one ISS or is a deliberate trap op,
//  * invalidation round-trip — translate, guest SMC, ranged invalidate,
//    re-lower — never executes a stale lowering,
//  * chained blocks — a return whose successor changes on every call,
//    and a snapshot restored into the SoC whose blocks are chained —
//    retire exactly the unchained values,
//  * a mid-block ecall traps at the exact pc/instret/cycle and
//    execution resumes after it,
//  * bounded runs and a cluster kernel retire exactly the values the
//    interpreter that preceded the handlers produced (pinned below; the
//    byte-level goldens live in golden_test),
//  * a cluster core parked mid-block resumes from its cursor only while
//    the block and its fetch line are still current, and run_slice()
//    reports a park at the limit and no other slice end,
//  * trap errors name the op and the pc in hex.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "batch/batch.hpp"
#include "cluster/pmca_core.hpp"
#include "core/soc.hpp"
#include "host/cva6.hpp"
#include "isa/assembler.hpp"
#include "isa/decoder.hpp"
#include "isa/encoding.hpp"
#include "isa/encoding_table.hpp"
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

/// Ops that neither ISS lowers on purpose: they transfer control to an
/// environment (syscall/debug/sleep) through each core's trap().
bool deliberate_trap_everywhere(Op op) {
  return op == Op::kEcall || op == Op::kEbreak || op == Op::kWfi;
}

TEST(ThreadedTable, EveryEncodableOpResolvesSomewhere) {
  const host::Cva6Config host_cfg;
  const cluster::PmcaCoreConfig pmca_cfg;
  for (const isa::detail::EncInfo& enc : isa::detail::encoding_table()) {
    const bool host_has =
        host::threaded_resolve(enc.op, host_cfg).fn != nullptr;
    const bool pmca_has =
        cluster::threaded_resolve(enc.op, pmca_cfg).fn != nullptr;
    EXPECT_TRUE(host_has || pmca_has || deliberate_trap_everywhere(enc.op))
        << "op " << static_cast<int>(enc.op)
        << " has no handler on either ISS and is not a deliberate trap op";
  }
}

TEST(ThreadedTable, StaticCyclesMatchConfiguredLatencies) {
  // Spot-check the latency folding the timing-neutrality argument rests
  // on: static_cycles == 1 (issue) + the configured fixed latency.
  host::Cva6Config host_cfg;
  host_cfg.mul_latency = 3;
  host_cfg.div_latency = 17;
  host_cfg.fpu_latency = 5;
  host_cfg.jump_penalty = 2;
  EXPECT_EQ(host::threaded_resolve(Op::kAdd, host_cfg).static_cycles, 1u);
  EXPECT_EQ(host::threaded_resolve(Op::kMul, host_cfg).static_cycles, 4u);
  EXPECT_EQ(host::threaded_resolve(Op::kDiv, host_cfg).static_cycles, 18u);
  EXPECT_EQ(host::threaded_resolve(Op::kFaddS, host_cfg).static_cycles, 6u);
  EXPECT_EQ(host::threaded_resolve(Op::kJal, host_cfg).static_cycles, 3u);
  // Memory ops must never carry a folded latency: their handlers read
  // cycle_ (through the D-cache model), so all their cost is dynamic.
  EXPECT_EQ(host::threaded_resolve(Op::kLd, host_cfg).static_cycles, 1u);
  EXPECT_EQ(host::threaded_resolve(Op::kSd, host_cfg).static_cycles, 1u);

  cluster::PmcaCoreConfig pmca_cfg;
  pmca_cfg.mul_latency = 2;
  pmca_cfg.div_latency = 9;
  EXPECT_EQ(cluster::threaded_resolve(Op::kPMac, pmca_cfg).static_cycles,
            3u);
  EXPECT_EQ(cluster::threaded_resolve(Op::kDivu, pmca_cfg).static_cycles,
            10u);
  EXPECT_EQ(cluster::threaded_resolve(Op::kLw, pmca_cfg).static_cycles, 1u);
  // The fused load-MAC is LSU-timed: no mul fold.
  EXPECT_EQ(
      cluster::threaded_resolve(Op::kPvSdotspBMem, pmca_cfg).static_cycles,
      1u);
  // RV64-only ops are host-side handlers and cluster trap ops.
  EXPECT_EQ(cluster::threaded_resolve(Op::kLd, pmca_cfg).fn, nullptr);
  EXPECT_NE(host::threaded_resolve(Op::kLd, host_cfg).fn, nullptr);
}

TEST(ThreadedDeopt, InvalidationRoundTripRelowersBlock) {
  core::HulkVSoc soc(fast_config());
  auto make = [](i64 value) {
    Assembler a(core::layout::kHostCodeBase, /*rv64=*/true);
    a.li(a0, value);
    a.li(a7, 93);
    a.ecall();
    return a.assemble();
  };
  auto rerun = [&] {
    soc.host().set_reg(sp, core::layout::kHostStackTop - 64);
    soc.host().set_pc(core::layout::kHostCodeBase);
    return soc.host().run();
  };

  const std::vector<u32> v1 = make(1);
  soc.load_program(core::layout::kHostCodeBase, v1);
  EXPECT_EQ(rerun().exit_code, 1u);

  // The executed block was lowered when it was translated.
  const isa::BlockCache& cache = soc.host().decode_blocks();
  const isa::DecodedBlock& block =
      soc.host().decode_blocks().block_at(core::layout::kHostCodeBase);
  EXPECT_EQ(block.threaded.code.size(), block.instrs.size());
  const u64 translations = cache.translations();

  // Guest SMC without invalidation: the stale lowering still executes
  // (same contract as the decoded-block cache itself).
  const std::vector<u32> v2 = make(2);
  soc.write_mem(core::layout::kHostCodeBase, v2.data(), v2.size() * 4);
  EXPECT_EQ(rerun().exit_code, 1u);

  // Ranged invalidation over the image: re-translate AND re-lower.
  soc.host().invalidate_decode_cache(core::layout::kHostCodeBase,
                                     v2.size() * 4);
  EXPECT_EQ(rerun().exit_code, 2u);
  EXPECT_EQ(cache.translations(), translations + 1);
  const isa::DecodedBlock& fresh =
      soc.host().decode_blocks().block_at(core::layout::kHostCodeBase);
  EXPECT_EQ(fresh.threaded.code[0].imm, 2);
}

TEST(ThreadedDeopt, MidBlockEcallResumesAtExactPcInstretCycle) {
  // An ecall in a loop body traps at the ecall's pc with the
  // instret/cycle the interpreter had there, and execution resumes
  // after it. The expected values were recorded from the interpreter.
  core::HulkVSoc soc(fast_config());
  Assembler a(core::layout::kHostCodeBase, /*rv64=*/true);
  a.li(t0, 3);
  a.li(a0, 0);
  a.label("loop");
  a.addi(a0, a0, 1);
  a.li(a7, 0);  // "observe" syscall, continues
  a.label("ecall");
  a.ecall();
  a.addi(t0, t0, -1);
  a.bnez(t0, "loop");
  a.li(a7, 93);
  a.ecall();
  soc.load_program(core::layout::kHostCodeBase, a.assemble());
  const Addr ecall_pc = a.address_of("ecall");

  std::vector<std::tuple<Addr, u64, Cycles>> at_ecall;
  soc.host().set_syscall_handler(
      [&at_ecall](host::Cva6Core& c) -> host::Cva6Core::SyscallAction {
        if (c.reg(a7) == 93) return host::Cva6Core::SyscallAction::kExit;
        at_ecall.emplace_back(c.pc(), c.instret(), c.now());
        return host::Cva6Core::SyscallAction::kContinue;
      });
  soc.host().set_pc(core::layout::kHostCodeBase);
  const auto run = soc.host().run();

  const std::vector<std::tuple<Addr, u64, Cycles>> expected = {
      {ecall_pc, 4, 38}, {ecall_pc, 9, 43}, {ecall_pc, 14, 48}};
  EXPECT_EQ(ecall_pc, core::layout::kHostCodeBase + 0x10);
  EXPECT_EQ(at_ecall, expected);
  EXPECT_EQ(run.exit_code, 3u);
  EXPECT_EQ(run.instret, 19u);
  EXPECT_EQ(run.cycles, 56u);
  EXPECT_EQ(soc.host().reg(a0), 3u);
}

TEST(ThreadedTier, BoundedRunsRetireTheExactBudget) {
  // run(max_instructions) cuts a block mid-way at the interpreter's
  // point (the budget-cut path re-establishes pc_/next_pc_): the
  // (pc, cycle) after every 7-instruction chunk, recorded from the
  // interpreter.
  core::HulkVSoc soc(fast_config());
  Assembler a(core::layout::kHostCodeBase, /*rv64=*/true);
  a.li(t0, 50);
  a.li(a0, 0);
  a.label("loop");
  a.addi(a0, a0, 2);
  a.addi(t0, t0, -1);
  a.bnez(t0, "loop");
  a.li(a7, 93);
  a.ecall();
  soc.load_program(core::layout::kHostCodeBase, a.assemble());
  soc.host().set_pc(core::layout::kHostCodeBase);
  std::vector<std::pair<Addr, Cycles>> checkpoints;
  for (;;) {
    const auto run = soc.host().run(/*max_instructions=*/7);
    checkpoints.push_back({soc.host().pc(), soc.host().now()});
    if (run.exited) break;
  }
  constexpr Addr kBase = core::layout::kHostCodeBase;
  std::vector<std::pair<Addr, Cycles>> expected;
  // Seven loop passes of three chunks each, then the exit chunk.
  for (Cycles c = 40; c <= 166; c += 21) {
    expected.push_back({kBase + 0x10, c});
    expected.push_back({kBase + 0x8, c + 7});
    expected.push_back({kBase + 0xc, c + 14});
  }
  expected.push_back({kBase + 0x1c, 191});
  EXPECT_EQ(checkpoints, expected);
}

TEST(ThreadedTier, ClusterKernelMatchesInterpExactly) {
  // Hardware loops, MACs and an envcall exit: per-core cycle/instret
  // equal to the interpreter's, recorded from it.
  core::HulkVSoc soc(fast_config());
  Assembler a(0, /*rv64=*/false);
  a.li(t0, 0);
  a.li(t1, 3);
  a.li(t4, 500);
  a.lp_count(0, t4);
  a.lp_starti(0, "body");
  a.lp_endi(0, "end");
  a.label("body");
  a.rr(Op::kPMac, t0, t1, t1);
  a.addi(t2, t2, 1);
  a.label("end");
  a.addi(t3, t3, 1);
  a.li(a7, cluster::envcall::kExit);
  a.ecall();
  soc.load_program(mem::map::kL2Base, a.assemble());
  const auto run = soc.cluster().run_kernel(0, mem::map::kL2Base, 0);
  std::vector<std::pair<Cycles, u64>> per_core;
  for (u32 c = 0; c < soc.cluster().num_cores(); ++c) {
    per_core.push_back({soc.cluster().core(c).now(),
                        soc.cluster().core(c).instret()});
  }
  const std::vector<std::pair<Cycles, u64>> expected = {
      {1026, 1009}, {1026, 1009}, {1018, 1009}, {1018, 1009},
      {1018, 1009}, {1018, 1009}, {1018, 1009}, {1018, 1009}};
  EXPECT_EQ(run.finish, 1026u);
  EXPECT_EQ(per_core, expected);
}

// ---------------------------------------------------------------------
// Chained blocks (DESIGN.md §10): following a successor link returns
// the block a map probe would, so chaining moves no simulated value.
// ---------------------------------------------------------------------

/// A leaf routine called alternately from two sites: the leaf's `jalr`
/// block returns to a different site on every call, so its taken link
/// is re-pointed each time. Exits with a0 = 10 * iterations.
std::vector<u32> two_site_leaf(i64 iterations) {
  Assembler a(core::layout::kHostCodeBase, /*rv64=*/true);
  a.li(s0, iterations);
  a.li(a0, 0);
  a.label("loop");
  a.call("leaf");
  a.addi(a0, a0, 3);
  a.call("leaf");
  a.addi(a0, a0, 5);
  a.addi(s0, s0, -1);
  a.bnez(s0, "loop");
  a.li(a7, 93);
  a.ecall();
  a.label("leaf");
  a.addi(a0, a0, 1);
  a.ret();
  return a.assemble();
}

void start_two_site_leaf(core::HulkVSoc& soc) {
  soc.load_program(core::layout::kHostCodeBase, two_site_leaf(40));
  soc.host().set_reg(sp, core::layout::kHostStackTop - 64);
  soc.host().set_pc(core::layout::kHostCodeBase);
}

// Recorded before blocks were chained.
constexpr u64 kLeafInstret = 404;
constexpr Cycles kLeafCycles = 761;
constexpr u64 kLeafDigest = 6130383038629734657ull;

TEST(ThreadedChain, ReturnToAlternatingSitesRetiresUnchainedValues) {
  core::HulkVSoc soc(fast_config());
  start_two_site_leaf(soc);
  const auto run = soc.host().run();
  EXPECT_TRUE(run.exited);
  EXPECT_EQ(run.exit_code, 400u);
  EXPECT_EQ(run.instret, kLeafInstret);
  EXPECT_EQ(run.cycles, kLeafCycles);
  EXPECT_EQ(soc.state_digest(), kLeafDigest);

  // The bounded loop follows the same links, across chunk boundaries.
  core::HulkVSoc chunked(fast_config());
  start_two_site_leaf(chunked);
  while (!chunked.host().run(/*max_instructions=*/7).exited) {
  }
  EXPECT_EQ(chunked.host().instret(), kLeafInstret);
  EXPECT_EQ(chunked.host().now(), kLeafCycles);
  EXPECT_EQ(chunked.state_digest(), kLeafDigest);
}

TEST(ThreadedChain, SnapshotRestoredIntoItsOwnChainedSocMatchesStraightRun) {
  // The SoC runs on past its own snapshot, so its blocks hold links of
  // the later run when the snapshot comes back. Restoring bumps the
  // block cache's generation; no link from before is followed.
  core::HulkVSoc soc(fast_config());
  start_two_site_leaf(soc);
  ASSERT_FALSE(soc.host().run(/*max_instructions=*/100).exited);
  const batch::SocSnapshot snap = batch::SocSnapshot::capture(soc);
  ASSERT_FALSE(soc.host().run(/*max_instructions=*/150).exited);
  snap.restore_into(soc);
  const auto rest = soc.host().run();
  EXPECT_TRUE(rest.exited);
  EXPECT_EQ(rest.exit_code, 400u);
  EXPECT_EQ(soc.host().instret(), kLeafInstret);
  EXPECT_EQ(soc.host().now(), kLeafCycles);
  EXPECT_EQ(soc.state_digest(), kLeafDigest);
}

// ---------------------------------------------------------------------
// Resume cursor (DESIGN.md §10): a core parked mid-block resumes from
// its cursor, never into a block or fetch line that went stale.
// ---------------------------------------------------------------------

constexpr Addr kCode = mem::map::kL2Base;
constexpr Addr kTcdmBase = mem::map::kTcdmBase;

/// Store 7 to TCDM + `offset` and exit. After the entry fetch, the
/// store is the block's first shared instruction.
std::vector<u32> store_seven(i32 offset) {
  Assembler a(kCode, /*rv64=*/false);
  a.li(t1, static_cast<i64>(kTcdmBase));
  a.li(a1, 7);
  a.sw(a1, offset, t1);
  a.li(a7, cluster::envcall::kExit);
  a.ecall();
  return a.assemble();
}

/// Run `core` on its own until it leaves kRunning.
void run_alone(cluster::PmcaCore& core) {
  while (core.state() == cluster::PmcaCore::State::kRunning) {
    core.run_slice(cluster::CoreScheduler::kIdle);
  }
}

TEST(ThreadedCursor, CodeLoadWhileParkedNeverResumesStaleBlock) {
  // Core 0 parks in front of the store, mid-block. The image is then
  // replaced by one whose store targets word 1. SoC `stale` parked in
  // the old image, SoC `current` in the new one already; after the
  // load both must run the new store with identical state.
  const auto run = [](i32 parked_offset) {
    core::HulkVSoc soc(fast_config());
    cluster::PmcaCore& core = soc.cluster().core(0);
    soc.load_program(kCode, store_seven(parked_offset));
    core.reset_for_run(kCode);
    // The limit lets the entry fetch (key (now, 0)) through and stops
    // the core at its next shared instruction.
    core.run_slice(cluster::CoreScheduler::key(core.now(), 1));
    EXPECT_EQ(core.state(), cluster::PmcaCore::State::kRunning);
    EXPECT_EQ(core.pc(), kCode + 8);  // in front of the store
    soc.load_program(kCode, store_seven(4));
    run_alone(core);
    u32 words[2] = {};
    soc.read_mem(kTcdmBase, words, sizeof(words));
    return std::make_tuple(words[0], words[1], core.now(), core.instret(),
                           soc.state_digest());
  };
  const auto stale = run(0);
  EXPECT_EQ(std::get<0>(stale), 0u);  // the replaced store never ran
  EXPECT_EQ(std::get<1>(stale), 7u);
  EXPECT_EQ(stale, run(4));
}

TEST(ThreadedCursor, ResetForRunAtParkedPcAfterSimErrorMatchesFreshSoc) {
  // Core 1 faults on an unknown envcall while core 0 is parked in front
  // of its store, mid-block, and the kernel ends in SimError. Restarting
  // core 0 at exactly the parked pc must fetch its line again, as on a
  // fresh SoC, not resume past the entry line check.
  Assembler a(kCode, /*rv64=*/false);
  a.ri(Op::kCsrrs, t2, 0, isa::csr::kMhartid);
  a.beqz(t2, "work");
  a.li(a7, 99);  // no such envcall
  a.ecall();
  a.label("work");
  a.li(t1, static_cast<i64>(kTcdmBase));
  a.li(a1, 7);
  a.label("store");
  a.sw(a1, 0, t1);
  a.li(a7, cluster::envcall::kExit);
  a.ecall();
  const std::vector<u32> words = a.assemble();
  const Addr store = a.address_of("store");

  const auto restart = [&](core::HulkVSoc& soc) {
    cluster::PmcaCore& core = soc.cluster().core(0);
    // A cold line makes a skipped fetch show in the cycles.
    soc.cluster().icache().flush();
    core.reset_for_run(store);
    core.set_reg(t1, static_cast<u32>(kTcdmBase));
    core.set_reg(a1, 7);
    const Cycles start = core.now();
    const u64 retired = core.instret();
    run_alone(core);
    u32 word = 0;
    soc.read_mem(kTcdmBase, &word, 4);
    return std::make_tuple(core.now() - start, core.instret() - retired,
                           word);
  };

  core::HulkVSoc faulted(fast_config());
  faulted.load_program(kCode, words);
  EXPECT_THROW(faulted.cluster().run_kernel(0, kCode, 0, /*team_size=*/2),
               SimError);
  const cluster::PmcaCore& parked = faulted.cluster().core(0);
  ASSERT_EQ(parked.state(), cluster::PmcaCore::State::kRunning);
  ASSERT_EQ(parked.pc(), store);

  core::HulkVSoc fresh(fast_config());
  fresh.load_program(kCode, words);
  EXPECT_EQ(restart(faulted), restart(fresh));
}

// run_slice() reports a park, and only a park: Cluster::run_kernel
// hands the next slice to the runner-up on that report alone.

TEST(ThreadedCursor, RunSliceReportsParkInFrontOfSharedInstruction) {
  core::HulkVSoc soc(fast_config());
  cluster::PmcaCore& core = soc.cluster().core(0);
  soc.load_program(kCode, store_seven(0));
  core.reset_for_run(kCode);
  const u64 limit = cluster::CoreScheduler::key(core.now(), 1);
  EXPECT_TRUE(core.run_slice(limit));
  EXPECT_EQ(core.state(), cluster::PmcaCore::State::kRunning);
  EXPECT_EQ(core.pc(), kCode + 8);  // in front of the store
  EXPECT_GE(cluster::CoreScheduler::key(core.now(), 0), limit);
  u32 word = 1;
  soc.read_mem(kTcdmBase, &word, 4);
  EXPECT_EQ(word, 0u);  // the store has not run
}

TEST(ThreadedCursor, RunSliceDoesNotReportParkWhenEnvcallRetires) {
  // Exit, barrier and DMA each end the slice at the ecall, far below
  // the limit, in the state the envcall leaves. A finished core keeps
  // the ecall's pc; the others commit the pc after it.
  using State = cluster::PmcaCore::State;
  const std::tuple<u64, State, Addr> cases[] = {
      {cluster::envcall::kExit, State::kFinished, 0},
      {cluster::envcall::kBarrier, State::kBlocked, 4},
      {cluster::envcall::kDma1d, State::kRunning, 4}};
  for (const auto& [func, state, pc_step] : cases) {
    core::HulkVSoc soc(fast_config());
    cluster::PmcaCore& core = soc.cluster().core(0);
    Assembler a(kCode, /*rv64=*/false);
    a.li(a0, static_cast<i64>(kTcdmBase));  // DMA: 64 bytes of code
    a.li(a1, static_cast<i64>(kCode));      // into the TCDM
    a.li(a2, 64);
    a.li(a7, static_cast<i64>(func));
    a.label("call");
    a.ecall();
    a.li(a7, cluster::envcall::kExit);
    a.ecall();
    soc.load_program(kCode, a.assemble());
    core.reset_for_run(kCode);
    const u64 limit = cluster::CoreScheduler::key(core.now() + 10000, 1);
    EXPECT_FALSE(core.run_slice(limit)) << "envcall " << func;
    EXPECT_EQ(core.state(), state) << "envcall " << func;
    EXPECT_EQ(core.pc(), a.address_of("call") + pc_step)
        << "envcall " << func;
  }
}

TEST(ThreadedCursor, RunSliceBudgetStopMidBlockIsNotPark) {
  // Two ALU ops past the limit: neither is shared, so the slice runs
  // through them and the budget stops it mid-block with a cursor set.
  // The rest of the run matches an uninterrupted one.
  Assembler a(kCode, /*rv64=*/false);
  a.addi(t0, zero, 1);
  a.addi(t1, t0, 2);
  a.addi(t2, t1, 3);
  a.li(a7, cluster::envcall::kExit);
  a.ecall();
  const std::vector<u32> words = a.assemble();
  const auto run = [&](bool bounded) {
    core::HulkVSoc soc(fast_config());
    cluster::PmcaCore& core = soc.cluster().core(0);
    soc.load_program(kCode, words);
    core.reset_for_run(kCode);
    if (bounded) {
      const u64 limit = cluster::CoreScheduler::key(core.now(), 1);
      EXPECT_FALSE(core.run_slice(limit, /*max_instrs=*/2));
      EXPECT_EQ(core.state(), cluster::PmcaCore::State::kRunning);
      EXPECT_EQ(core.pc(), kCode + 8);
      EXPECT_GE(cluster::CoreScheduler::key(core.now(), 0), limit);
    }
    run_alone(core);
    return std::make_tuple(core.now(), core.instret(), core.reg(t2),
                           soc.state_digest());
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(ThreadedCursor, RunSliceLoneCoreWithIdleLimitNeverParks) {
  // kIdle is no limit: the store, a shared instruction, runs in the
  // same slice, which ends at the exit.
  core::HulkVSoc soc(fast_config());
  cluster::PmcaCore& core = soc.cluster().core(0);
  soc.load_program(kCode, store_seven(0));
  core.reset_for_run(kCode);
  EXPECT_FALSE(core.run_slice(cluster::CoreScheduler::kIdle));
  EXPECT_EQ(core.state(), cluster::PmcaCore::State::kFinished);
  u32 word = 0;
  soc.read_mem(kTcdmBase, &word, 4);
  EXPECT_EQ(word, 7u);
}

// ---------------------------------------------------------------------
// Trap path: errors name the op and the exact pc, in hex.
// ---------------------------------------------------------------------

/// The SimError text `run` throws, or "" when it returns.
template <typename F>
std::string sim_error(F&& run) {
  try {
    run();
  } catch (const SimError& e) {
    return e.what();
  }
  return "";
}

/// Two ALU ops, then the instruction word `trap` mid-block at base + 8.
std::vector<u32> trap_program(Addr base, bool rv64, u32 trap) {
  Assembler a(base, rv64);
  a.addi(t0, t0, 1);
  a.addi(t1, t1, 1);
  std::vector<u32> words = a.assemble();
  words.push_back(trap);
  return words;
}

/// An all-ones word: no RISC-V encoding, decodes to Op::kIllegal.
constexpr u32 kUndecodable = 0xFFFFFFFFu;

std::string host_trap(const std::vector<u32>& words) {
  core::HulkVSoc soc(fast_config());
  soc.load_program(core::layout::kHostCodeBase, words);
  soc.host().set_pc(core::layout::kHostCodeBase);
  return sim_error([&] { soc.host().run(10); });
}

std::string pmca_trap(const std::vector<u32>& words) {
  core::HulkVSoc soc(fast_config());
  soc.load_program(kCode, words);
  return sim_error([&] { soc.cluster().run_kernel(0, kCode, 0); });
}

TEST(ThreadedTrap, HostEbreakNamesOpAndHexPc) {
  const std::string what = host_trap(trap_program(
      core::layout::kHostCodeBase, true, isa::encode({.op = Op::kEbreak})));
  EXPECT_NE(what.find("ebreak"), std::string::npos) << what;
  EXPECT_NE(what.find("pc=0x80100008"), std::string::npos) << what;
}

TEST(ThreadedTrap, HostUndecodableWordNamesOpAndHexPc) {
  ASSERT_EQ(isa::decode(kUndecodable).op, Op::kIllegal);
  const std::string what = host_trap(
      trap_program(core::layout::kHostCodeBase, true, kUndecodable));
  EXPECT_NE(what.find("'illegal'"), std::string::npos) << what;
  EXPECT_NE(what.find("pc=0x80100008"), std::string::npos) << what;
}

TEST(ThreadedTrap, PmcaEbreakNamesOpAndHexPc) {
  const std::string what =
      pmca_trap(trap_program(kCode, false, isa::encode({.op = Op::kEbreak})));
  EXPECT_NE(what.find("ebreak"), std::string::npos) << what;
  EXPECT_NE(what.find("pc=0x1c000008"), std::string::npos) << what;
}

TEST(ThreadedTrap, PmcaUndecodableWordNamesOpAndHexPc) {
  const std::string what = pmca_trap(trap_program(kCode, false, kUndecodable));
  EXPECT_NE(what.find("'illegal'"), std::string::npos) << what;
  EXPECT_NE(what.find("pc=0x1c000008"), std::string::npos) << what;
}

TEST(ThreadedTrap, PmcaLdNamesOpAndHexPc) {
  // RV64 loads are host-only: a PMCA kernel traps on them.
  const std::string what = pmca_trap(trap_program(
      kCode, false, isa::encode({.op = Op::kLd, .rd = a0, .rs1 = t0})));
  EXPECT_NE(what.find("'ld'"), std::string::npos) << what;
  EXPECT_NE(what.find("pc=0x1c000008"), std::string::npos) << what;
}

}  // namespace
}  // namespace hulkv
