// IOPMP: physical-memory-protection filter on the PMCA's AXI master port,
// configured by the host (paper section III-C: "An IOPMP controlled by
// CVA6 filters master transactions"). The host grants the cluster windows
// over the shared regions (TCDM is cluster-local and always allowed); any
// other cluster-initiated transaction is denied, which the bus surfaces
// as an AXI error (SimError).
#pragma once

#include <vector>

#include "common/types.hpp"
#include "snapshot/archive.hpp"

namespace hulkv::core {

class Iopmp {
 public:
  struct Region {
    Addr base = 0;
    u64 size = 0;
    bool allow_read = true;
    bool allow_write = true;
  };

  /// Grant a window. Regions may overlap; access is allowed if any
  /// granting region covers the whole transaction.
  void add_region(const Region& region);

  /// True if a cluster transaction [addr, addr+bytes) is permitted.
  bool check(Addr addr, u32 bytes, bool is_write) const;

  /// When disabled, everything is allowed (bring-up mode).
  void set_enforcing(bool enforcing) { enforcing_ = enforcing; }
  bool enforcing() const { return enforcing_; }

  const std::vector<Region>& regions() const { return regions_; }

  /// Snapshot traversal (grant table + enforcing flag).
  void serialize(snapshot::Archive& ar) {
    // Field by field: Region has padding bytes.
    constexpr u64 kRegionBytes = sizeof(Addr) + sizeof(u64) + 2 * sizeof(bool);
    u64 count = regions_.size();
    ar.count(count, kRegionBytes);
    if (ar.loading()) regions_.resize(count);
    for (Region& region : regions_) {
      ar.pod(region.base);
      ar.pod(region.size);
      ar.pod(region.allow_read);
      ar.pod(region.allow_write);
    }
    ar.pod(enforcing_);
  }

 private:
  std::vector<Region> regions_;
  bool enforcing_ = true;
};

}  // namespace hulkv::core
