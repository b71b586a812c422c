// Core Local Interruptor (CLINT): machine timer + software interrupt for
// the host core (paper figure 1 lists a standard CLINT in the host
// domain). Register layout follows the de-facto SiFive map used by the
// RISC-V Linux port:
//   0x0000  msip     (4 B)  software interrupt pending
//   0x4000  mtimecmp (8 B)
//   0xBFF8  mtime    (8 B)  read-only view of the cycle counter
#pragma once

#include <functional>

#include "mem/interconnect.hpp"

namespace hulkv::host {

class Clint final : public mem::MmioDevice {
 public:
  static constexpr Addr kMsip = 0x0000;
  static constexpr Addr kMtimecmp = 0x4000;
  static constexpr Addr kMtime = 0xBFF8;

  /// `time_source` supplies the current cycle for mtime reads.
  explicit Clint(std::function<Cycles()> time_source)
      : time_(std::move(time_source)) {}

  u64 mmio_read(Addr offset, u32 size) override;
  void mmio_write(Addr offset, u64 value, u32 size) override;

  bool software_interrupt_pending() const { return msip_; }
  bool timer_interrupt_pending() const { return time_() >= mtimecmp_; }
  u64 mtimecmp() const { return mtimecmp_; }

  /// Snapshot traversal (mtime is a view of the host clock, not state).
  void serialize(snapshot::Archive& ar) {
    ar.pod(msip_);
    ar.pod(mtimecmp_);
  }

 private:
  std::function<Cycles()> time_;
  bool msip_ = false;
  u64 mtimecmp_ = ~0ull;
};

}  // namespace hulkv::host
