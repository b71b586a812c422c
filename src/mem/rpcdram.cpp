#include "mem/rpcdram.hpp"

#include <algorithm>

#include "common/bitutil.hpp"

namespace hulkv::mem {

RpcDramModel::RpcDramModel(const RpcDramConfig& config)
    : config_(config),
      next_refresh_(config.refresh_period),
      open_row_(config.num_banks, -1),
      stats_("rpcdram") {
  HULKV_CHECK(config.num_banks >= 1, "RPC DRAM needs banks");
  HULKV_CHECK(is_pow2(config.row_bytes), "row size must be a power of two");
  HULKV_CHECK(config.clk_div >= 1, "bus clock divider must be >= 1");
}

Cycles RpcDramModel::access(Cycles now, Addr addr, u32 bytes,
                            bool is_write) {
  HULKV_CHECK(bytes > 0, "zero-length RPC DRAM access");
  stats_.increment(is_write ? "writes" : "reads");
  stats_.add(is_write ? "bytes_written" : "bytes_read", bytes);

  u64 offset = addr % config_.total_bytes;
  Cycles t = std::max(now, busy_until_);
  const Cycles start = t;
  const u64 bursts_before = stats_.get("bursts");
  const u64 refresh_before = stats_.get("refresh_collisions");
  u32 remaining = bytes;
  while (remaining > 0) {
    const u64 to_row_end = config_.row_bytes - (offset % config_.row_bytes);
    const u32 chunk = static_cast<u32>(std::min<u64>(
        {remaining, to_row_end, config_.max_burst_bytes}));
    t = burst(t, offset, chunk);
    offset += chunk;
    remaining -= chunk;
  }
  busy_until_ = t;
  stats_.add("busy_cycles", t - start);
  if (trace::enabled()) {
    auto& sink = trace::sink();
    trace::XactArg xarg;
    xarg.write = is_write;
    xarg.bursts = static_cast<u32>(stats_.get("bursts") - bursts_before);
    xarg.refresh_collisions =
        static_cast<u32>(stats_.get("refresh_collisions") - refresh_before);
    sink.complete(sink.resolve(trace_track_, stats_.name()),
                  trace::Ev::kMemXact, start, t, bytes,
                  trace::pack_xact_arg(xarg));
  }
  return t;
}

Cycles RpcDramModel::burst(Cycles start, Addr addr, u32 bytes) {
  stats_.increment("bursts");
  u32 bus_clocks = config_.t_cmd_bus_clk;

  // Row-buffer management.
  const u32 bank = bank_of(addr);
  const i64 row = static_cast<i64>(row_of(addr));
  if (open_row_[bank] != row) {
    if (open_row_[bank] >= 0) {
      bus_clocks += config_.t_rp_bus_clk;  // precharge the old row
      stats_.increment("row_conflicts");
    }
    bus_clocks += config_.t_rcd_bus_clk;  // activate
    stats_.increment("row_activations");
    open_row_[bank] = row;
  } else {
    stats_.increment("row_hits");
  }

  // Refresh collision (same mechanism as the HyperRAM model).
  if (start >= next_refresh_) {
    bus_clocks += config_.refresh_extra_bus_clk;
    stats_.increment("refresh_collisions");
    while (next_refresh_ <= start) next_refresh_ += config_.refresh_period;
  }

  // 16-bit DDR data phase: 4 bytes per bus clock.
  bus_clocks += static_cast<u32>(ceil_div(bytes, 4));
  return start + static_cast<Cycles>(bus_clocks) * config_.clk_div;
}

void RpcDramModel::serialize(snapshot::Archive& ar) {
  ar.pod(busy_until_);
  ar.pod(next_refresh_);
  ar.pod_vec(open_row_);
  ar.expect_size(open_row_.size(), config_.num_banks,
                 "rpc-dram row buffer table");
  stats_.serialize(ar);
}

}  // namespace hulkv::mem
