// Two-level cluster instruction cache (paper section III-C): 512 B of
// private I-cache per core backed by a 4 kB shared level, which in turn
// fetches from the L2SPM over the cluster's AXI port. Timing-only, like
// every cache in the simulator.
#pragma once

#include <memory>
#include <vector>

#include "mem/cache.hpp"
#include "mem/timing.hpp"

namespace hulkv::cluster {

struct ClusterIcacheConfig {
  u32 private_bytes = 512;
  u32 shared_bytes = 4 * 1024;
  u32 line_bytes = 32;
  Cycles shared_hit_latency = 2;   // private miss served by shared level
  Cycles l2_fetch_latency = 8;     // shared miss: AXI hop + L2 read
};

class ClusterIcache {
 public:
  ClusterIcache(u32 num_cores, const ClusterIcacheConfig& config);

  /// Fetch timing for `core_id` at `pc`. Returns the completion cycle.
  Cycles fetch(u32 core_id, Cycles now, Addr pc) {
    return private_[core_id]->access(now, pc, 4, /*is_write=*/false);
  }

  /// True when `pc`'s line sits in `core_id`'s private level: the fetch
  /// would complete without touching the shared level, so it is a
  /// core-local event (used by the cluster scheduler's run-ahead).
  bool private_hit(u32 core_id, Addr pc) const {
    return private_[core_id]->probe(pc);
  }

  /// Invalidate all levels (called when a new kernel image is loaded).
  void flush();

  mem::CacheModel& private_cache(u32 core_id) { return *private_[core_id]; }
  mem::CacheModel& shared_cache() { return *shared_; }

  /// Snapshot traversal (shared level first, then per-core privates).
  void serialize(snapshot::Archive& ar) {
    shared_->serialize(ar);
    for (auto& cache : private_) cache->serialize(ar);
  }

 private:
  mem::FixedLatency l2_latency_;
  std::unique_ptr<mem::CacheModel> shared_;
  std::vector<std::unique_ptr<mem::CacheModel>> private_;
};

}  // namespace hulkv::cluster
