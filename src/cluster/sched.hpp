// Flat packed-key scheduler for the cluster's per-core clocks.
//
// The cluster advances the core with the smallest local clock so that
// shared-resource reservations (TCDM banks, DMA, external memory) are
// made in time order. Each core owns one slot holding the packed key
// (cycle << kIdBits) | core_id, so a single u64 compare is the
// lexicographic (cycle, core_id) order — the tie-break of the original
// per-instruction linear scan (lowest-index core among the minimum).
// A core that is not runnable holds kIdle, which no packed key reaches.
//
// With at most a handful of cores, one branch-free scan of the slots
// finds both the minimum and the runner-up. The runner-up's key is the
// horizon handed to the laggard: it may retire a run of instructions
// locally until its own key reaches that limit (PmcaCore::run_slice),
// which preserves exactly the per-instruction global time order
// (DESIGN.md §10).
#pragma once

#include <algorithm>
#include <vector>

#include "common/types.hpp"

namespace hulkv::cluster {

class CoreScheduler {
 public:
  /// Low key bits holding the core id.
  static constexpr u32 kIdBits = 8;
  static constexpr u32 kMaxCores = 1u << kIdBits;
  /// Key of a non-runnable core; as a limit key it means "no limit".
  static constexpr u64 kIdle = ~u64{0};
  /// Largest clock a key can carry: the shifted clock must not lose
  /// bits, and no key may reach kIdle.
  static constexpr Cycles kMaxCycle = (kIdle >> kIdBits) - 1;

  static constexpr u64 key(Cycles cycle, u32 id) {
    return (cycle << kIdBits) | id;
  }
  static constexpr u32 id_of(u64 key) {
    return static_cast<u32>(key & (kMaxCores - 1));
  }
  static constexpr Cycles cycle_of(u64 key) { return key >> kIdBits; }

  /// Size the slot array for `num_cores`, all idle. Throws SimError
  /// when a core id does not fit in kIdBits.
  void reset(u32 num_cores) {
    HULKV_CHECK(num_cores <= kMaxCores,
                "cluster scheduler: core ids must fit in " +
                    std::to_string(kIdBits) + " key bits");
    keys_.assign(num_cores, kIdle);
  }

  /// Make `id` runnable at `cycle` (or move it there).
  void set(u32 id, Cycles cycle) { keys_[id] = key(cycle, id); }
  /// Make `id` non-runnable.
  void remove(u32 id) { keys_[id] = kIdle; }
  bool contains(u32 id) const { return keys_[id] != kIdle; }

  /// The smallest key and the runner-up's key (kIdle when absent).
  struct Pick {
    u64 first = kIdle;
    u64 second = kIdle;
  };

  /// One scan over the slots; keys are unique, so min/max select them.
  Pick pick() const {
    Pick p;
    for (const u64 k : keys_) {
      p.second = std::min(p.second, std::max(p.first, k));
      p.first = std::min(p.first, k);
    }
    return p;
  }

 private:
  std::vector<u64> keys_;  // core id -> packed key, kIdle when out
};

}  // namespace hulkv::cluster
