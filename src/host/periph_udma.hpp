// Peripheral uDMA (paper section III): "Data to/from off-chip peripherals
// are autonomously written/read from/to the L2SPM through a dedicated
// uDMA." This engine models the peripheral side of that path: an I/O
// stream (I2S samples, a CPI camera line, a SPI flash read, ...) produced
// or consumed at the peripheral's data rate, moved into/out of the L2SPM
// without involving the host core, with a PLIC interrupt on completion —
// the acquisition half of every sensor pipeline the paper's intro
// motivates.
//
// The L2 port occupancy is charged through the shared L2 timing model, so
// concurrent streams, cluster DMA and host traffic contend realistically.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "mem/timing.hpp"

namespace hulkv::host {

class PeriphUdma {
 public:
  /// `l2`/`l2_base` locate the scratchpad; `l2_timing` is the shared L2
  /// port model; `irq` is invoked at stream completion (wired to the
  /// PLIC by the SoC).
  PeriphUdma(std::vector<u8>* l2, Addr l2_base, mem::MemTiming* l2_timing,
             std::function<void()> irq);

  /// RX: the peripheral produces `data` at `bytes_per_cycle` (e.g. an
  /// I2S microphone at 2 bytes per 256 SoC cycles = 0.0078) into the
  /// L2SPM at `dst`. Returns the completion cycle; the IRQ fires then.
  Cycles start_rx(Cycles now, Addr dst, std::span<const u8> data,
                  double bytes_per_cycle);

  /// TX: stream `bytes` from the L2SPM at `src` out to the peripheral at
  /// its data rate; the transmitted bytes are appended to `tx_log()`.
  Cycles start_tx(Cycles now, Addr src, u32 bytes, double bytes_per_cycle);

  /// Everything transmitted so far (test/inspection hook).
  const std::string& tx_log() const { return tx_log_; }

  const StatGroup& stats() const { return stats_; }

  /// Snapshot traversal.
  void serialize(snapshot::Archive& ar) {
    ar.str(tx_log_);
    stats_.serialize(ar);
  }

 private:
  bool in_l2(Addr addr, u64 bytes) const;
  Cycles charge_l2(Cycles start, Addr addr, u32 bytes, bool is_write);

  std::vector<u8>* l2_;
  Addr l2_base_;
  mem::MemTiming* l2_timing_;
  std::function<void()> irq_;
  std::string tx_log_;
  StatGroup stats_;
};

}  // namespace hulkv::host
