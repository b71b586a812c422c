// Platform-Level Interrupt Controller (paper figure 1).
//
// Minimal claim/complete model with per-source enable and pending bits.
// The PMCA-to-host mailbox raises source 1; peripherals (UART, SPI, ...)
// would occupy further sources. Register map (one hart context):
//   0x0000 + 4*src  priority
//   0x1000          pending bitmap (read-only)
//   0x2000          enable bitmap
//   0x20000         claim/complete
#pragma once

#include <array>

#include "mem/interconnect.hpp"

namespace hulkv::host {

class Plic final : public mem::MmioDevice {
 public:
  static constexpr u32 kNumSources = 32;
  static constexpr Addr kPendingOffset = 0x1000;
  static constexpr Addr kEnableOffset = 0x2000;
  static constexpr Addr kClaimOffset = 0x20000;

  u64 mmio_read(Addr offset, u32 size) override;
  void mmio_write(Addr offset, u64 value, u32 size) override;

  /// Device-side: raise/clear an interrupt source (1-based ids).
  void raise(u32 source);
  void clear(u32 source);

  /// True if any enabled source is pending (the core's external IRQ line).
  bool interrupt_pending() const;

  /// Snapshot traversal.
  void serialize(snapshot::Archive& ar) {
    ar.pod(pending_);
    ar.pod(enabled_);
    ar.pod(claimed_);
    ar.bytes(priority_.data(), priority_.size() * sizeof(u32));
  }

 private:
  u32 highest_pending() const;

  // Source ids are 1-based bit positions; 64-bit masks so that source
  // kNumSources (bit 32) is representable.
  u64 pending_ = 0;
  u64 enabled_ = 0;
  u64 claimed_ = 0;
  std::array<u32, kNumSources + 1> priority_{};
};

}  // namespace hulkv::host
