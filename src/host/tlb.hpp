// SV39 TLB timing model for the host MMU (paper section IV: "CVA6's MMU
// supports SV39 virtual memory paging").
//
// Linux runs on HULK-V with paging enabled, so the cost of address
// translation is part of the CPU-centric numbers. This model captures the
// observable timing: a fully associative, LRU data/instruction TLB; a
// miss triggers an SV39 three-level page-table walk, each level a real
// (timed) memory access through the data-cache path — so walk cost
// depends on the memory configuration exactly like any other access, and
// hot page-table lines get cached.
//
// Translation is identity (the simulator runs physically addressed
// programs); only the *timing* of translation is modelled. Disabled by
// default so bare-metal numbers match the FPGA methodology; the Linux
// overhead study enables it (see tests/host_test.cc and
// bench/ablation_memsys.cpp).
#pragma once

#include <functional>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "snapshot/archive.hpp"

namespace hulkv::host {

struct TlbConfig {
  u32 entries = 16;       // CVA6-class fully associative TLB
  u32 levels = 3;         // SV39: three page-table levels
  u64 page_bytes = 4096;
};

class Tlb {
 public:
  /// `pte_read(now, pte_addr)` performs one timed page-table-entry read
  /// and returns its completion cycle (wired to the L1D path by the core).
  using PteReader = std::function<Cycles(Cycles now, Addr pte_addr)>;

  Tlb(const TlbConfig& config, PteReader pte_read);

  /// Translate `vaddr` at cycle `now`; returns the cycle at which the
  /// physical address is available (== now on a TLB hit).
  Cycles translate(Cycles now, Addr vaddr);

  /// sfence.vma: drop all entries.
  void flush();

  /// Snapshot traversal.
  void serialize(snapshot::Archive& ar);

  const StatGroup& stats() const { return stats_; }
  double hit_ratio() const;

  /// Base of the synthetic page-table region (inside the external-memory
  /// window, above the shared heap).
  static constexpr Addr kPageTableBase = 0x9F00'0000ull;

 private:
  struct Entry {
    u64 vpn = 0;
    u64 lru = 0;
    bool valid = false;
  };

  TlbConfig config_;
  PteReader pte_read_;
  std::vector<Entry> entries_;
  u64 use_clock_ = 0;
  StatGroup stats_;
};

}  // namespace hulkv::host
