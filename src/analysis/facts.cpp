#include "analysis/facts.hpp"

namespace hulkv::analysis {

namespace {

u32 count_blocks(const FactsTable& table, bool (*pred)(const BlockFacts&)) {
  u32 n = 0;
  for (const BlockFacts& b : table.blocks) {
    if (b.reachable && pred(b)) ++n;
  }
  return n;
}

}  // namespace

u32 FactsTable::reachable_blocks() const {
  return count_blocks(*this, [](const BlockFacts&) { return true; });
}

u32 FactsTable::pure_blocks() const {
  return count_blocks(*this, [](const BlockFacts& b) { return b.pure; });
}

u32 FactsTable::memory_free_blocks() const {
  return count_blocks(
      *this, [](const BlockFacts& b) { return !b.may_access_memory; });
}

u32 FactsTable::tcdm_local_blocks() const {
  return count_blocks(*this, [](const BlockFacts& b) {
    return b.may_access_memory && b.tcdm_local;
  });
}

u32 FactsTable::eligible_blocks() const {
  return count_blocks(
      *this, [](const BlockFacts& b) { return b.run_ahead_eligible; });
}

u32 FactsTable::core_local_ecalls() const {
  u32 n = 0;
  for (const u8 f : instr_facts) {
    if ((f & kFactCoreLocalEcall) != 0) ++n;
  }
  return n;
}

}  // namespace hulkv::analysis
