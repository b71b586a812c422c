// Block-facts table: the analyzer's proven per-instruction and
// per-block properties, exported with the diagnostic report
// (DESIGN.md §13).
//
// The analyzer (analyzer.cpp) fills one FactsTable per analyzed image:
// per-instruction fact flags (may-access-memory, proven-TCDM-local,
// proven-core-local ecall, ...), per-basic-block summaries (min cycles,
// purity, memory footprint, run-ahead eligibility) and per-function
// interprocedural summaries (callgraph.hpp). The table is analyzer
// output only: hulkv-analyze prints it and tests/golden/
// analyze_corpus.json pins it; no simulator reads it.
#pragma once

#include <vector>

#include "analysis/callgraph.hpp"
#include "analysis/footprint.hpp"

namespace hulkv::analysis {

/// Per-instruction fact flags.
enum InstrFact : u8 {
  /// May access data memory (loads/stores, incl. the fused MAC&load ops).
  kFactMemAccess = 1u << 0,
  /// Every possible effective address lies inside the TCDM window.
  kFactTcdmLocal = 1u << 1,
  /// Is an environment call.
  kFactEcall = 1u << 2,
  /// Ecall whose statically-proven service id touches only core-local
  /// state (cluster kExit/kCoreCount, host exit): safe to run ahead.
  kFactCoreLocalEcall = 1u << 3,
  /// Must execute in global time order and cannot be widened: ebreak,
  /// wfi, illegal, and ecalls not proven core-local.
  kFactOrdered = 1u << 4,
};

/// Summary of one analysis basic block (CFG block granularity; decoded
/// blocks may span several — the per-instruction flags bridge the gap).
struct BlockFacts {
  u32 first = 0;       // instruction index range [first, last]
  u32 last = 0;
  Addr start = 0;      // byte range [start, end) at the analysis base
  Addr end = 0;
  /// Lower bound on execution cycles: every instruction retires in at
  /// least one cycle on both cores, independent of configured latencies.
  u32 min_cycles = 0;
  bool reachable = false;
  bool may_access_memory = false;
  bool may_ecall = false;
  /// No memory access, no ecall/trap: result depends only on registers.
  bool pure = false;
  /// Every memory access proven inside the TCDM window.
  bool tcdm_local = false;
  /// Free of ordered instructions over the whole block: a run-ahead
  /// scheduler can execute it past its time horizon without parking.
  bool run_ahead_eligible = false;
  RangeSet footprint;
};

class FactsTable {
 public:
  std::vector<u8> instr_facts;  // InstrFact flags per instruction
  std::vector<BlockFacts> blocks;
  std::vector<FuncSummary> functions;

  // ---- summary counts over reachable blocks (report/CI currency) ----
  u32 reachable_blocks() const;
  u32 pure_blocks() const;
  u32 memory_free_blocks() const;   // !may_access_memory
  u32 tcdm_local_blocks() const;    // has accesses, all proven TCDM-local
  u32 eligible_blocks() const;      // run_ahead_eligible
  u32 core_local_ecalls() const;    // instructions with kFactCoreLocalEcall
};

}  // namespace hulkv::analysis
