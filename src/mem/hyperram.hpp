// HyperRAM controller + HyperBUS device timing model (paper section III-B,
// figure 3).
//
// The HyperBUS is a fully digital protocol with 11+n pins: 3 control pins,
// n chip selects, and an 8-bit double-data-rate data bus. The paper's
// controller exposes an AXI4 front-end (transactions serviced one at a
// time) and a dedicated uDMA engine; both are multiplexed onto the PHY.
// This model captures the externally observable timing:
//
//  * the HyperBUS clock runs at a divider of the SoC clock (2x on the
//    ASIC: 450 MHz SoC / 200 MHz class HyperBUS; also 2x on the paper's
//    FPGA evaluation: 50 MHz SoC / 25 MHz bus);
//  * each transaction pays a command/address phase (3 bus clocks = 6 CA
//    bytes DDR) plus the device's initial access latency, which doubles
//    when the access collides with a self-refresh slot;
//  * data then streams at 2 bytes per bus clock per bus (8-bit DDR);
//  * with two HyperBUS interfaces the same-CS devices are interleaved as
//    16-bit blocks, doubling bandwidth (up to 6.4 Gbps);
//  * multiple chips per bus are mapped contiguously and selected by CS;
//    a transaction that crosses a chip boundary is split, paying a fresh
//    CA + latency phase;
//  * long transfers are chopped into bursts of `max_burst_bytes` so the
//    device can be refreshed between bursts (tCSM constraint).
//
// The controller occupies the device: concurrent masters (AXI front-end
// vs uDMA) serialise on `busy_until`, exactly like the mux in figure 3.
#pragma once

#include "common/stats.hpp"
#include "mem/timing.hpp"
#include "trace/trace.hpp"

namespace hulkv::mem {

struct HyperRamConfig {
  u32 clk_div = 2;           // SoC cycles per HyperBUS clock
  u32 num_buses = 1;         // 1 or 2 HyperBUS interfaces
  u32 chips_per_bus = 8;     // chip selects per bus
  u64 chip_bytes = 64ull * 1024 * 1024;  // capacity per chip (up to 64 MB)
  u32 t_cmd_bus_clk = 3;     // command/address phase (bus clocks)
  u32 t_access_bus_clk = 6;  // initial access latency (bus clocks)
  u32 max_burst_bytes = 512;     // burst split for refresh headroom
  Cycles refresh_period = 4000;  // SoC cycles between refresh slots
  u32 refresh_extra_bus_clk = 6; // extra latency on a refresh collision

  /// Total capacity across all buses and chip selects.
  u64 total_bytes() const {
    return static_cast<u64>(num_buses) * chips_per_bus * chip_bytes;
  }

  /// Data bytes transferred per SoC cycle at saturation.
  double peak_bytes_per_cycle() const {
    return 2.0 * num_buses / clk_div;
  }
};

class HyperRamModel final : public MemTiming {
 public:
  explicit HyperRamModel(const HyperRamConfig& config);

  Cycles access(Cycles now, Addr addr, u32 bytes, bool is_write) override;

  /// Snapshot traversal.
  void serialize(snapshot::Archive& ar);

  const HyperRamConfig& config() const { return config_; }
  const StatGroup& stats() const { return stats_; }
  StatGroup& stats() { return stats_; }

  /// Cycles the device spent actively transferring (for the power model).
  Cycles busy_cycles() const { return stats_.get("busy_cycles"); }

 private:
  /// One burst entirely within a chip-select window.
  Cycles burst(Cycles start, u32 bytes, bool is_write);

  HyperRamConfig config_;
  Cycles busy_until_ = 0;
  Cycles next_refresh_;
  StatGroup stats_;
  // Interned counter slots (one transaction may mean many bursts).
  u64& ctr_reads_;
  u64& ctr_writes_;
  u64& ctr_bytes_read_;
  u64& ctr_bytes_written_;
  u64& ctr_busy_cycles_;
  u64& ctr_bursts_;
  u64& ctr_refresh_collisions_;
  trace::TrackHandle trace_track_;
};

}  // namespace hulkv::mem
