// Block-facts tests (src/analysis/{facts,callgraph,footprint}):
//  * RangeSet normalisation (merge, adjacency, the kMaxRanges cap,
//    within, unbounded absorption),
//  * FactsTable block and instruction facts: run-ahead eligibility,
//    min_cycles and the core-local ecall flag,
//  * call-graph summaries: entry function first, direct callees,
//    recursion, indirect-call taint, effect propagation bottom-up,
//  * the whole-corpus golden JSON (tests/golden/analyze_corpus.json,
//    regenerate with HULKV_REGEN_GOLDEN=1).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "analysis/analyzer.hpp"
#include "cluster/pmca_core.hpp"
#include "isa/assembler.hpp"
#include "kernels/corpus.hpp"

#ifndef HULKV_TEST_DATA_DIR
#define HULKV_TEST_DATA_DIR "."
#endif

namespace hulkv::analysis {
namespace {

using isa::Assembler;
using isa::Op;
using namespace isa::reg;

Options cluster_options() {
  Options options;
  options.profile = IsaProfile::kClusterRv32;
  options.base = 0;
  options.pic = true;
  return options;
}

// ---------------------------------------------------------------------
// RangeSet
// ---------------------------------------------------------------------

TEST(RangeSet, MergesOverlapAndAdjacency) {
  RangeSet s;
  s.add(0x100, 0x110);
  s.add(0x120, 0x130);
  ASSERT_EQ(s.ranges().size(), 2u);
  s.add(0x110, 0x120);  // adjacent on both sides: all three coalesce
  ASSERT_EQ(s.ranges().size(), 1u);
  EXPECT_EQ(s.ranges()[0], (AddrRange{0x100, 0x130}));
  EXPECT_TRUE(s.within(0x100, 0x130));
  EXPECT_FALSE(s.within(0x100, 0x12F));
}

TEST(RangeSet, CapCoalescesClosestPair) {
  RangeSet s;
  // kMaxRanges widely-spaced ranges, then one more close to the first.
  for (size_t i = 0; i < RangeSet::kMaxRanges; ++i) {
    s.add(0x1000 * (i + 1), 0x1000 * (i + 1) + 0x10);
  }
  ASSERT_EQ(s.ranges().size(), RangeSet::kMaxRanges);
  s.add(0x1020, 0x1030);  // nearest neighbour of [0x1000, 0x1010)
  EXPECT_LE(s.ranges().size(), RangeSet::kMaxRanges);
  // Soundness after coalescing: every added byte is still covered.
  EXPECT_TRUE(s.within(0x1000, 0x9010));
  for (size_t i = 0; i < RangeSet::kMaxRanges; ++i) {
    const Addr lo = 0x1000 * (i + 1);
    bool covered = false;
    for (const AddrRange& r : s.ranges()) {
      covered |= r.lo <= lo && lo + 0x10 <= r.hi;
    }
    EXPECT_TRUE(covered) << "range " << i << " lost";
  }
}

TEST(RangeSet, UnboundedAbsorbsEverything) {
  RangeSet s;
  s.add(0x100, 0x200);
  s.set_unbounded();
  EXPECT_TRUE(s.unbounded());
  EXPECT_FALSE(s.empty());
  EXPECT_FALSE(s.within(0, ~u64{0}));
  RangeSet t;
  t.add(0x500, 0x600);
  t.merge(s);
  EXPECT_TRUE(t.unbounded());
}

// ---------------------------------------------------------------------
// FactsTable
// ---------------------------------------------------------------------

/// Pure arithmetic, then a core-local exit ecall: the analyzer must
/// prove the whole block eligible and flag the ecall core-local.
TEST(FactsTable, ProvesEligibleBlockAndCoreLocalEcall) {
  Assembler a(0, false);
  a.li(t0, 1);
  a.li(t1, 2);
  a.add(t2, t0, t1);
  a.li(a7, cluster::envcall::kExit);
  a.ecall();
  const std::vector<u32> words = a.assemble();
  const Analysis an = analyze_program(words, cluster_options());

  ASSERT_EQ(an.facts.blocks.size(), 1u);
  const BlockFacts& block = an.facts.blocks[0];
  EXPECT_TRUE(block.run_ahead_eligible);
  EXPECT_EQ(block.min_cycles, words.size());
  // The ecall is the last instruction and the only core-local one.
  ASSERT_EQ(an.facts.instr_facts.size(), words.size());
  EXPECT_NE(an.facts.instr_facts.back() & kFactCoreLocalEcall, 0);
  EXPECT_EQ(an.facts.core_local_ecalls(), 1u);
}

TEST(FactsTable, MemoryAccessBlocksEligibility) {
  Assembler a(0, false);
  a.li(t0, 42);
  a.sw(t0, 0, a0);
  a.li(a7, cluster::envcall::kExit);
  a.ecall();
  const std::vector<u32> words = a.assemble();
  const Analysis an = analyze_program(words, cluster_options());
  ASSERT_EQ(an.facts.blocks.size(), 1u);
  EXPECT_TRUE(an.facts.blocks[0].may_access_memory);
  EXPECT_FALSE(an.facts.blocks[0].run_ahead_eligible);  // the store
  // The ecall is still proven core-local: the per-instruction flags and
  // the block's eligibility are independent facts.
  EXPECT_NE(an.facts.instr_facts.back() & kFactCoreLocalEcall, 0);
}

// ---------------------------------------------------------------------
// Call graph
// ---------------------------------------------------------------------

TEST(Callgraph, DirectCalleeAndEffectPropagation) {
  // main: call f; exit.   f: store, return.
  Assembler a(0, false);
  a.jal(ra, "f");
  a.li(a7, cluster::envcall::kExit);
  a.ecall();
  a.label("f");
  a.sw(zero, 0, a0);
  a.ret();
  const std::vector<u32> words = a.assemble();
  const Analysis an = analyze_program(words, cluster_options());
  const auto& funcs = an.facts.functions;
  ASSERT_EQ(funcs.size(), 2u);
  EXPECT_EQ(funcs[0].entry, 0u);  // image entry first
  ASSERT_EQ(funcs[0].callees.size(), 1u);
  EXPECT_EQ(funcs[0].callees[0], funcs[1].entry);
  // f's store taints the caller's summary bottom-up.
  EXPECT_TRUE(funcs[1].may_access_memory);
  EXPECT_TRUE(funcs[0].may_access_memory);
  EXPECT_FALSE(funcs[1].may_ecall);
  EXPECT_TRUE(funcs[0].may_ecall);
  EXPECT_FALSE(funcs[0].recursive);
}

TEST(Callgraph, RecursionConvergesAndIsFlagged) {
  // f calls itself (conditionally) — the bottom-up fixpoint must
  // terminate and flag the cycle.
  Assembler a(0, false);
  a.jal(ra, "f");
  a.li(a7, cluster::envcall::kExit);
  a.ecall();
  a.label("f");
  a.addi(a0, a0, -1);
  a.beqz(a0, "done");
  a.jal(ra, "f");
  a.label("done");
  a.ret();
  const std::vector<u32> words = a.assemble();
  const Analysis an = analyze_program(words, cluster_options());
  const auto& funcs = an.facts.functions;
  ASSERT_EQ(funcs.size(), 2u);
  EXPECT_TRUE(funcs[1].recursive);
  EXPECT_FALSE(funcs[0].recursive);
  // Pure recursion: no memory, no ecall inside f.
  EXPECT_FALSE(funcs[1].may_access_memory);
}

TEST(Callgraph, IndirectCallTaints) {
  Assembler a(0, false);
  a.li(t0, 0x10);
  a.ri(Op::kJalr, ra, t0, 0);  // indirect call: callee unknown
  a.li(a7, cluster::envcall::kExit);
  a.ecall();
  const std::vector<u32> words = a.assemble();
  const Analysis an = analyze_program(words, cluster_options());
  ASSERT_FALSE(an.facts.functions.empty());
  const FuncSummary& entry = an.facts.functions[0];
  EXPECT_TRUE(entry.has_indirect_call);
  // Unknown callee: conservatively impure with unbounded footprint.
  EXPECT_FALSE(entry.pure);
  EXPECT_TRUE(entry.footprint.unbounded());
}

// ---------------------------------------------------------------------
// Whole-corpus golden JSON
// ---------------------------------------------------------------------

TEST(Corpus, AnalysesAreErrorFreeWithProvenBlocks) {
  const auto results = kernels::run_corpus_analysis();
  ASSERT_GE(results.size(), 20u);
  u32 with_eligible = 0;
  for (const auto& r : results) {
    EXPECT_TRUE(r.analysis.report.ok()) << r.entry.name;
    EXPECT_GT(r.analysis.facts.reachable_blocks(), 0u) << r.entry.name;
    if (r.analysis.facts.eligible_blocks() > 0) ++with_eligible;
  }
  // The ISSUE gate: run-ahead-eligible blocks proven on well over
  // three programs.
  EXPECT_GE(with_eligible, 3u);
}

TEST(Corpus, JsonMatchesGolden) {
  const std::string json =
      kernels::render_corpus_json(kernels::run_corpus_analysis());
  const std::string golden_path =
      std::string(HULKV_TEST_DATA_DIR) + "/golden/analyze_corpus.json";
  if (std::getenv("HULKV_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << json;
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  std::ifstream golden_file(golden_path);
  ASSERT_TRUE(golden_file.good()) << "missing golden file " << golden_path;
  std::ostringstream golden;
  golden << golden_file.rdbuf();
  EXPECT_EQ(json, golden.str())
      << "whole-corpus analysis drifted; regenerate with "
         "HULKV_REGEN_GOLDEN=1 if the change is intended";
}

}  // namespace
}  // namespace hulkv::analysis
