// Parallel sweep engine (hulkv::batch, DESIGN.md section 11).
//
// The evaluation is a family of independent simulations — every point of
// the Fig. 7/8 sweeps and the memory-system ablations builds its own SoC,
// runs a workload and reads back statistics. This layer farms those
// points out to a std::thread worker pool fed from a shared job queue,
// in the spirit of checkpointed platform instances (GVSoC) and
// farmed-out simulation jobs (FireSim-style flows).
//
// Determinism contract: every job writes only its own pre-allocated
// result slot, and callers assemble output from the slots in index
// order after the pool has drained. Output is therefore byte-identical
// for every worker count, including the serial --jobs 1 path (which
// runs inline on the calling thread, in index order, with no pool at
// all).
//
// Thread-safety contract (DESIGN.md section 11.4):
//   - one SoC per job, constructed (or snapshot-forked) inside the job;
//   - a shared SocSnapshot is immutable and may be restored from any
//     number of workers concurrently;
//   - the trace sink is a process-wide singleton and is NOT thread-safe:
//     run_jobs() refuses worker counts > 1 while tracing is enabled.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/soc.hpp"

namespace hulkv::batch {

/// Default worker count: std::thread::hardware_concurrency(), at least 1.
u32 default_jobs();

/// Run `count` jobs — job(0) .. job(count-1), each exactly once — on
/// `workers` threads (0 = default_jobs()). Jobs are handed out from a
/// shared atomic queue; with an effective worker count of 1 they run
/// inline on the calling thread in index order. The first exception
/// thrown by a job is rethrown here after the pool drains. While
/// telemetry is collecting, each drain's throughput, per-job latency
/// percentiles, worker utilization and peak in-flight depth reach the
/// registry as a telemetry::SweepSummary (DESIGN.md §14.3).
/// Throws SimError when workers > 1 while tracing is enabled.
void run_jobs(u64 count, u32 workers, const std::function<void(u64)>& job);

/// An in-memory SoC checkpoint (the same container format Soc::save
/// writes to disk). Immutable once captured — any number of workers may
/// fork SoCs from one snapshot concurrently. capture() is the only way
/// to fill one, so its bytes are always the ones its Writer checksummed.
class SocSnapshot {
 public:
  SocSnapshot() = default;

  /// Checkpoint `soc` (plus optional extra sections, e.g. the offload
  /// runtime's kRuntime section).
  static SocSnapshot capture(
      core::HulkVSoc& soc,
      const core::HulkVSoc::SectionWriterFn& extra = nullptr);

  /// Restore this checkpoint into `soc` (built from the same config;
  /// the kMeta fingerprint is validated). Reads the sections in place,
  /// without copying or re-hashing the bytes. Const and reentrant.
  void restore_into(core::HulkVSoc& soc,
                    const core::HulkVSoc::SectionReaderFn& extra =
                        nullptr) const;

  u64 size_bytes() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }

 private:
  std::string bytes_;  // the stream buffer capture() wrote, moved in
};

/// The sweep driver benches use: map a function over a parameter grid
/// (one fresh or snapshot-forked SoC per point) and collect results in
/// index order.
class SweepEngine {
 public:
  /// workers = 0 picks default_jobs().
  explicit SweepEngine(u32 workers = 0)
      : workers_(workers == 0 ? default_jobs() : workers) {}

  u32 workers() const { return workers_; }

  /// Run fn(0) .. fn(count-1) on the pool; results land in index order.
  /// Each fn builds its own SoC (grid sweeps vary the SocConfig, so the
  /// points cannot share a snapshot — restore validates the config
  /// fingerprint).
  template <typename Result>
  std::vector<Result> map(u64 count,
                          const std::function<Result(u64)>& fn) const {
    std::vector<Result> out(count);
    run_jobs(count, workers_,
             [&](u64 index) { out[index] = fn(index); });
    return out;
  }

  /// Same-config sweep forked from a warmed checkpoint: every job gets
  /// a SoC from make_soc(), restored from `snap`, then fn runs on it.
  /// Skips re-simulating boot + warm-up for every point.
  template <typename Result>
  std::vector<Result> map_forked(
      const SocSnapshot& snap, u64 count,
      const std::function<std::unique_ptr<core::HulkVSoc>()>& make_soc,
      const std::function<Result(core::HulkVSoc&, u64)>& fn) const {
    std::vector<Result> out(count);
    run_jobs(count, workers_, [&](u64 index) {
      std::unique_ptr<core::HulkVSoc> soc = make_soc();
      snap.restore_into(*soc);
      out[index] = fn(*soc, index);
    });
    return out;
  }

 private:
  u32 workers_;
};

}  // namespace hulkv::batch
