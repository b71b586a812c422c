#include "mem/hyperram.hpp"

#include <algorithm>

#include "common/bitutil.hpp"

namespace hulkv::mem {

HyperRamModel::HyperRamModel(const HyperRamConfig& config)
    : config_(config),
      next_refresh_(config.refresh_period),
      stats_("hyperram"),
      ctr_reads_(stats_.counter("reads")),
      ctr_writes_(stats_.counter("writes")),
      ctr_bytes_read_(stats_.counter("bytes_read")),
      ctr_bytes_written_(stats_.counter("bytes_written")),
      ctr_busy_cycles_(stats_.counter("busy_cycles")),
      ctr_bursts_(stats_.counter("bursts")),
      ctr_refresh_collisions_(stats_.counter("refresh_collisions")) {
  HULKV_CHECK(config.num_buses == 1 || config.num_buses == 2,
              "HyperRAM controller exposes 1 or 2 HyperBUS interfaces");
  HULKV_CHECK(config.chips_per_bus >= 1, "need at least one chip select");
  HULKV_CHECK(config.clk_div >= 1, "bus clock divider must be >= 1");
  HULKV_CHECK(config.max_burst_bytes >= 2, "burst must carry data");
}

Cycles HyperRamModel::access(Cycles now, Addr addr, u32 bytes,
                             bool is_write) {
  HULKV_CHECK(bytes > 0, "zero-length HyperRAM access");
  (is_write ? ctr_writes_ : ctr_reads_) += 1;
  (is_write ? ctr_bytes_written_ : ctr_bytes_read_) += bytes;
  const u64 bursts_before = ctr_bursts_;
  const u64 refresh_before = ctr_refresh_collisions_;

  // With 2 interleaved buses, a chip-select window covers a pair of chips.
  const u64 cs_window = config_.chip_bytes * config_.num_buses;
  // Addresses are relative to the external-memory base as seen by the
  // controller; only the offset inside the memory matters for CS demux.
  u64 offset = addr % config_.total_bytes();

  Cycles t = std::max(now, busy_until_);
  const Cycles start = t;
  u32 remaining = bytes;
  while (remaining > 0) {
    const u64 to_cs_end = cs_window - (offset % cs_window);
    const u32 chunk = static_cast<u32>(std::min<u64>(
        {remaining, to_cs_end, config_.max_burst_bytes}));
    t = burst(t, chunk, is_write);
    offset += chunk;
    remaining -= chunk;
  }
  busy_until_ = t;
  ctr_busy_cycles_ += t - start;
  if (trace::enabled()) {
    auto& sink = trace::sink();
    trace::XactArg xarg;
    xarg.write = is_write;
    xarg.bursts = static_cast<u32>(ctr_bursts_ - bursts_before);
    xarg.refresh_collisions =
        static_cast<u32>(ctr_refresh_collisions_ - refresh_before);
    sink.complete(sink.resolve(trace_track_, stats_.name()),
                  trace::Ev::kMemXact, start, t, bytes,
                  trace::pack_xact_arg(xarg));
  }
  return t;
}

Cycles HyperRamModel::burst(Cycles start, u32 bytes, bool is_write) {
  ctr_bursts_ += 1;
  u32 bus_clocks = config_.t_cmd_bus_clk + config_.t_access_bus_clk;

  // Refresh collision: if this burst begins past the next refresh slot,
  // the device inserts an extra initial-latency window (the HyperBUS
  // "2x latency" case signalled by RWDS during CA).
  if (start >= next_refresh_) {
    bus_clocks += config_.refresh_extra_bus_clk;
    ctr_refresh_collisions_ += 1;
    if (trace::enabled()) {
      auto& sink = trace::sink();
      sink.instant(
          sink.resolve(trace_track_, stats_.name()),
          trace::Ev::kRefreshCollision, start,
          static_cast<Cycles>(config_.refresh_extra_bus_clk) * config_.clk_div);
    }
    while (next_refresh_ <= start) next_refresh_ += config_.refresh_period;
  }

  // Data phase: 8-bit DDR = 2 bytes per bus clock per bus.
  const u32 bytes_per_clk = 2 * config_.num_buses;
  bus_clocks += static_cast<u32>(ceil_div(bytes, bytes_per_clk));
  (void)is_write;  // reads and writes share the bus timing

  return start + static_cast<Cycles>(bus_clocks) * config_.clk_div;
}

void HyperRamModel::serialize(snapshot::Archive& ar) {
  ar.pod(busy_until_);
  ar.pod(next_refresh_);
  stats_.serialize(ar);
}

}  // namespace hulkv::mem
