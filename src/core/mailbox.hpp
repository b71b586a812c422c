// Hardware mailbox between the host domain and the PMCA (paper section
// III-C: "Efficient communication between cluster and host domain is
// implemented through a dedicated hardware mailbox").
//
// Two word FIFOs (host->cluster and cluster->host) behind an MMIO window.
// A cluster->host post raises a PLIC source so the host can sleep in WFI
// during an offload. Register map (byte offsets):
//   0x00  H2C write   (host pushes)      0x04  H2C read   (cluster pops)
//   0x08  C2H write   (cluster pushes)   0x0C  C2H read   (host pops)
//   0x10  status: bit0 = H2C non-empty, bit1 = C2H non-empty
#pragma once

#include <deque>
#include <functional>

#include "mem/interconnect.hpp"

namespace hulkv::core {

class Mailbox final : public mem::MmioDevice {
 public:
  static constexpr Addr kH2cWrite = 0x00;
  static constexpr Addr kH2cRead = 0x04;
  static constexpr Addr kC2hWrite = 0x08;
  static constexpr Addr kC2hRead = 0x0C;
  static constexpr Addr kStatus = 0x10;

  /// `irq_raise` is invoked on every cluster->host post (wired to the
  /// PLIC by the SoC).
  explicit Mailbox(std::function<void()> irq_raise = nullptr)
      : irq_raise_(std::move(irq_raise)) {}

  u64 mmio_read(Addr offset, u32 size) override;
  void mmio_write(Addr offset, u64 value, u32 size) override;

  // Direct API used by the runtime (same semantics as the registers).
  void post_to_cluster(u32 word) { h2c_.push_back(word); }
  void post_to_host(u32 word);
  bool host_message_pending() const { return !c2h_.empty(); }
  bool cluster_message_pending() const { return !h2c_.empty(); }
  u32 pop_host();     // pop C2H (host side)
  u32 pop_cluster();  // pop H2C (cluster side)

  /// Snapshot traversal (both FIFOs; the IRQ wiring is construction-time).
  void serialize(snapshot::Archive& ar);

 private:
  std::deque<u32> h2c_;
  std::deque<u32> c2h_;
  std::function<void()> irq_raise_;
};

}  // namespace hulkv::core
