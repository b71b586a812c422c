#include "serve/service.hpp"

#include "telemetry/telemetry.hpp"

namespace hulkv::serve {

Service::PointResult Service::run_point(const PointParams& point,
                                        bool no_cache,
                                        const CancelFn& cancelled,
                                        obs::StageClock* clock) {
  const CacheKey key = point_cache_key(point);
  PointResult result;
  result.row.workload = point.workload;
  result.row.mem_kind = point.mem_kind;
  result.row.llc = point.llc;

  if (!no_cache) {
    const u64 t0 = clock != nullptr ? telemetry::now_ns() : 0;
    const bool hit = cache_.lookup(key, &result.row);
    if (clock != nullptr) {
      clock->cache_lookup_ns += telemetry::now_ns() - t0;
      clock->cache_hit = hit;
    }
    if (hit) {
      result.cache_hit = true;
      return result;
    }
  }

  const u64 fork0 = clock != nullptr ? telemetry::now_ns() : 0;
  const WarmPool::Entry& entry = warm_pool_.get(point);
  if (telemetry::enabled()) {
    telemetry::registry().note_config_fingerprint(key.config_fingerprint);
    telemetry::registry().note_program_digest(entry.program.name,
                                              key.program_digest);
  }
  core::HulkVSoc soc(entry.config);
  entry.snapshot.restore_into(soc);
  kernels::prepare_host_program(soc, entry.program.words, entry.args);
  const u64 exec0 = clock != nullptr ? telemetry::now_ns() : 0;
  if (clock != nullptr) clock->warm_fork_ns += exec0 - fork0;

  // Chunked timed run: identical retirement to one unbounded run, with
  // a cancellation poll between segments.
  u64 cycles = 0, instret = 0;
  u32 chunks = 0;
  for (;;) {
    const host::Cva6Core::RunResult seg =
        soc.host().run(kRunChunkInstructions);
    cycles += seg.cycles;
    instret += seg.instret;
    ++chunks;
    if (seg.exited) {
      result.row.cycles = cycles;
      result.row.instret = instret;
      result.row.exit_code = seg.exit_code;
      break;
    }
    if (cancelled) {
      const Status aborted = cancelled();
      if (aborted != Status::kOk) {
        if (clock != nullptr) {
          clock->execute_ns += telemetry::now_ns() - exec0;
          clock->chunks += chunks;
        }
        result.status = aborted;
        return result;
      }
    }
  }
  if (clock != nullptr) {
    clock->execute_ns += telemetry::now_ns() - exec0;
    clock->chunks += chunks;
  }

  points_simulated_.fetch_add(1);
  if (!no_cache) cache_.insert(key, result.row);
  return result;
}

}  // namespace hulkv::serve
