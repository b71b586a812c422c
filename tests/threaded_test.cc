// Threaded execution tier (DESIGN.md §15):
//  * handler-table coverage — every encodable op resolves to a handler
//    on at least one ISS or is a deliberate deopt point,
//  * deopt-on-invalidation round-trip — translate, guest SMC, ranged
//    invalidate, re-lower — never executes a stale lowering,
//  * mid-block deopt at an ecall hands over to the interpreter at the
//    exact pc/instret/cycle and resumes after it,
//  * a cluster core parked mid-block resumes from its cursor only while
//    the block and its fetch line are still current,
//  * tier selection never changes architectural results or timing
//    (the broad byte-equal gates live in determinism_test; these are
//    the targeted unit-level checks).
#include <gtest/gtest.h>

#include <tuple>
#include <utility>
#include <vector>

#include "cluster/pmca_core.hpp"
#include "core/soc.hpp"
#include "host/cva6.hpp"
#include "isa/assembler.hpp"
#include "isa/encoding_table.hpp"
#include "isa/threaded.hpp"
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
/// environment (syscall/debug/sleep) whose handlers live behind the
/// interpreter's exec() path on both cores.
bool deliberate_deopt_everywhere(Op op) {
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
    EXPECT_TRUE(host_has || pmca_has || deliberate_deopt_everywhere(enc.op))
        << "op " << static_cast<int>(enc.op)
        << " has no threaded handler on either ISS and is not a "
           "deliberate deopt point";
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
  // The fused load-MAC is LSU-timed like the interpreter: no mul fold.
  EXPECT_EQ(
      cluster::threaded_resolve(Op::kPvSdotspBMem, pmca_cfg).static_cycles,
      1u);
  // RV64-only ops are host-side handlers and cluster deopt points.
  EXPECT_EQ(cluster::threaded_resolve(Op::kLd, pmca_cfg).fn, nullptr);
  EXPECT_NE(host::threaded_resolve(Op::kLd, host_cfg).fn, nullptr);
}

TEST(ThreadedDeopt, InvalidationRoundTripRelowersBlock) {
  core::HulkVSoc soc(fast_config());
  soc.host().set_tier(isa::ExecTier::kThreaded);
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

  // The executed block is lowered and its lowering is current.
  const isa::DecodedBlock& block =
      soc.host().decode_blocks().block_at(core::layout::kHostCodeBase);
  EXPECT_EQ(block.threaded.generation, block.generation);
  EXPECT_EQ(block.threaded.code.size(), block.instrs.size());

  // Guest SMC without invalidation: the stale lowering still executes
  // (same contract as the decoded-block cache itself).
  const std::vector<u32> v2 = make(2);
  soc.write_mem(core::layout::kHostCodeBase, v2.data(), v2.size() * 4);
  EXPECT_EQ(rerun().exit_code, 1u);

  // Ranged invalidation over the image: re-translate AND re-lower.
  soc.host().invalidate_decode_cache(core::layout::kHostCodeBase,
                                     v2.size() * 4);
  EXPECT_EQ(rerun().exit_code, 2u);
  const isa::DecodedBlock& fresh =
      soc.host().decode_blocks().block_at(core::layout::kHostCodeBase);
  EXPECT_EQ(fresh.threaded.generation, fresh.generation);
}

TEST(ThreadedDeopt, MidBlockEcallResumesAtExactPcInstretCycle) {
  // An ecall in a loop body: the threaded tier must hand over to the
  // interpreter at the ecall's pc with the instret/cycle the
  // interpreter would have there, then resume threaded after it.
  struct Obs {
    std::vector<std::pair<Addr, std::pair<u64, Cycles>>> at_ecall;
    u64 exit_code = 0;
    u64 instret = 0;
    Cycles cycles = 0;
    u64 a0 = 0;
  };
  auto run_tier = [&](isa::ExecTier tier) {
    core::HulkVSoc soc(fast_config());
    soc.host().set_tier(tier);
    Assembler a(core::layout::kHostCodeBase, /*rv64=*/true);
    a.li(t0, 3);
    a.li(a0, 0);
    a.label("loop");
    a.addi(a0, a0, 1);
    a.li(a7, 0);  // "observe" syscall, continues
    a.ecall();
    a.addi(t0, t0, -1);
    a.bnez(t0, "loop");
    a.li(a7, 93);
    a.ecall();
    soc.load_program(core::layout::kHostCodeBase, a.assemble());

    Obs obs;
    soc.host().set_syscall_handler(
        [&obs](host::Cva6Core& c) -> host::Cva6Core::SyscallAction {
          if (c.reg(17) == 93) return host::Cva6Core::SyscallAction::kExit;
          obs.at_ecall.push_back({c.pc(), {c.instret(), c.now()}});
          return host::Cva6Core::SyscallAction::kContinue;
        });
    soc.host().set_pc(core::layout::kHostCodeBase);
    const auto run = soc.host().run();
    obs.exit_code = run.exit_code;
    obs.instret = run.instret;
    obs.cycles = run.cycles;
    obs.a0 = soc.host().reg(10);
    return obs;
  };

  const Obs interp = run_tier(isa::ExecTier::kInterp);
  const Obs threaded = run_tier(isa::ExecTier::kThreaded);
  EXPECT_EQ(interp.at_ecall.size(), 3u);
  ASSERT_EQ(threaded.at_ecall.size(), interp.at_ecall.size());
  for (size_t i = 0; i < interp.at_ecall.size(); ++i) {
    EXPECT_EQ(threaded.at_ecall[i].first, interp.at_ecall[i].first)
        << "ecall #" << i << " pc";
    EXPECT_EQ(threaded.at_ecall[i].second.first,
              interp.at_ecall[i].second.first)
        << "ecall #" << i << " instret";
    EXPECT_EQ(threaded.at_ecall[i].second.second,
              interp.at_ecall[i].second.second)
        << "ecall #" << i << " cycle";
  }
  EXPECT_EQ(threaded.exit_code, interp.exit_code);
  EXPECT_EQ(threaded.instret, interp.instret);
  EXPECT_EQ(threaded.cycles, interp.cycles);
  EXPECT_EQ(threaded.a0, interp.a0);
}

TEST(ThreadedTier, BoundedRunsRetireTheExactBudget) {
  // run(max_instructions) must cut a block mid-way at the same point on
  // both tiers (the budget-cut path re-establishes pc_/next_pc_).
  auto run_chunked = [&](isa::ExecTier tier) {
    core::HulkVSoc soc(fast_config());
    soc.host().set_tier(tier);
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
    return checkpoints;
  };
  const auto interp = run_chunked(isa::ExecTier::kInterp);
  const auto threaded = run_chunked(isa::ExecTier::kThreaded);
  EXPECT_EQ(interp, threaded);
  EXPECT_GT(interp.size(), 10u);  // genuinely chunked, not one run
}

TEST(ThreadedTier, ClusterKernelMatchesInterpExactly) {
  // The cluster tier across hardware loops, MACs and an envcall exit:
  // per-core cycle/instret equality against the interpreter.
  auto run_tier = [&](isa::ExecTier tier) {
    core::HulkVSoc soc(fast_config());
    for (u32 c = 0; c < soc.cluster().num_cores(); ++c) {
      soc.cluster().core(c).set_tier(tier);
    }
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
    return std::make_pair(run.finish, per_core);
  };
  const auto interp = run_tier(isa::ExecTier::kInterp);
  const auto threaded = run_tier(isa::ExecTier::kThreaded);
  EXPECT_EQ(interp.first, threaded.first);
  EXPECT_EQ(interp.second, threaded.second);
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

}  // namespace
}  // namespace hulkv
