// Point executor of the serve daemon: warm-fork dispatch with result
// caching and cooperative cancellation (DESIGN.md §16.4-16.5).
//
// run_point() is the whole data path of one simulation point:
//
//   cache lookup -> warm-pool fork -> prepare -> chunked host run
//
// The host run executes in bounded segments (Cva6Core::run(budget)),
// polling the caller's cancel callback between chunks, so a deadline
// or a shutdown interrupts a running point within one chunk's wall
// time without leaving shared state behind (the forked SoC is local to
// the call). Bounded-budget segments retire the same cycles as one
// unbounded run (pinned by threaded_test), so chunking never changes
// results.
#pragma once

#include <atomic>
#include <functional>

#include "serve/cache.hpp"
#include "serve/obs.hpp"
#include "serve/warm_pool.hpp"

namespace hulkv::serve {

/// Host instructions per run segment between cancellation polls.
inline constexpr u64 kRunChunkInstructions = 1u << 20;

class Service {
 public:
  /// Poll between run chunks: kOk = keep going, anything else aborts
  /// the point with that status (kDeadlineExpired / kShuttingDown).
  using CancelFn = std::function<Status()>;

  struct PointResult {
    Status status = Status::kOk;
    ResultRow row;
    bool cache_hit = false;
  };

  /// Simulate one point (or serve it from the cache). `no_cache`
  /// bypasses both lookup and insert. Throws SimError only on invalid
  /// points — simulation itself cannot throw for catalogue workloads.
  /// With a non-null `clock` the cache-lookup / warm-fork / execute
  /// stages are wall-clocked into it; nullptr is the tracing-off path
  /// and reads no clock at all (pinned by observation_off_test).
  PointResult run_point(const PointParams& point, bool no_cache,
                        const CancelFn& cancelled,
                        obs::StageClock* clock = nullptr);

  ResultCache& cache() { return cache_; }
  const ResultCache& cache() const { return cache_; }
  WarmPool& warm_pool() { return warm_pool_; }
  /// Warm-pool entries built so far (each paid one cold boot).
  u64 warm_pool_cold_builds() const { return warm_pool_.cold_builds(); }
  /// Points that ran a simulation (cache misses + no-cache runs).
  u64 points_simulated() const { return points_simulated_.load(); }

 private:
  WarmPool warm_pool_;
  ResultCache cache_;
  std::atomic<u64> points_simulated_{0};
};

}  // namespace hulkv::serve
