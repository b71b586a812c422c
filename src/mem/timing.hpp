// Timing interface implemented by every downstream memory target (DRAM
// models, LLC, caches).
//
// The simulator separates *function* from *time*: functional data lives in
// backing stores and is moved immediately, while timing models compute when
// an access would complete on the modelled hardware. A timing model may
// keep internal occupancy state ("device busy until cycle X"), which is how
// bandwidth saturation and compute/DMA overlap emerge naturally: a request
// arriving at `now` starts no earlier than the device is free.
#pragma once

#include "common/types.hpp"
#include "snapshot/archive.hpp"

namespace hulkv::mem {

class MemTiming {
 public:
  virtual ~MemTiming() = default;

  /// Model one access of `bytes` bytes at `addr` issued at cycle `now`.
  /// Returns the cycle at which the access completes (data available for
  /// reads, write accepted for writes). Must be monotone in `now`.
  virtual Cycles access(Cycles now, Addr addr, u32 bytes, bool is_write) = 0;
};

/// A fixed-latency, infinite-bandwidth timing model (SRAM scratchpads,
/// MMIO registers reached over the AXI crossbar).
class FixedLatency final : public MemTiming {
 public:
  explicit FixedLatency(Cycles latency) : latency_(latency) {}

  Cycles access(Cycles now, Addr, u32, bool) override {
    return now + latency_;
  }

 private:
  Cycles latency_;
};

/// Single-ported SRAM timing: fixed access latency plus a data path of
/// `bytes_per_cycle`; concurrent masters serialise on the port (L2SPM,
/// boot ROM). Latency pipelines; only the data beats occupy the port.
class SramTiming final : public MemTiming {
 public:
  SramTiming(Cycles latency, u32 bytes_per_cycle)
      : latency_(latency), bytes_per_cycle_(bytes_per_cycle) {}

  Cycles access(Cycles now, Addr, u32 bytes, bool) override {
    const Cycles start = now > busy_until_ ? now : busy_until_;
    const Cycles beats =
        (bytes + bytes_per_cycle_ - 1) / bytes_per_cycle_;
    busy_until_ = start + beats;
    return start + latency_ + beats;
  }

  /// Snapshot traversal (port occupancy is the only state).
  void serialize(snapshot::Archive& ar) { ar.pod(busy_until_); }

 private:
  Cycles latency_;
  u32 bytes_per_cycle_;
  Cycles busy_until_ = 0;
};

}  // namespace hulkv::mem
