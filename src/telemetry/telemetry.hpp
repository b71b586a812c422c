// Host-side self-observability (hulkv::telemetry, DESIGN.md §14).
//
// Where hulkv::trace and hulkv::profile observe the *guest* (simulated
// events, simulated cycles), this layer observes the *simulator* as a
// host process: RAII wall-clock spans bracket the simulator's own
// phases — program analyze/load, block translation, ISS
// dispatch chunks, snapshot save/restore/digest, batch jobs — and feed
// per-phase latency histograms (telemetry/histogram.hpp).
//
// Cheap-when-disabled, like hulkv::trace: a disabled span costs one
// branch on `telemetry::enabled()` (an inline load of a plain bool) and
// never reads a clock. Purely observational: nothing in the simulator
// reads telemetry state, no simulated cycle depends on it, and it never
// writes to stdout — bench output is byte-identical with telemetry on
// or off (pinned by determinism_test).
//
// Thread-safety: spans may be opened and closed on any thread (batch
// workers included). Histogram updates are lock-free; retained span
// records are buffered per thread (TLS) and flushed into the registry
// under a mutex when the buffer fills, when the thread exits, or on an
// explicit flush. enable()/disable()/reset()/snapshot reads belong to
// the single orchestration thread, outside parallel regions.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "telemetry/histogram.hpp"

namespace hulkv::report {
class MetricsReport;
struct BenchOptions;
}  // namespace hulkv::report

namespace hulkv::telemetry {

/// Simulator phases a span can cover. Order is the manifest/report
/// rendering order; names come from phase_name().
enum class SpanPhase : u8 {
  kProgramAnalyze,   // static analysis of a guest image before load
  kProgramLoad,      // image copy + fact attachment
  kBlockTranslate,   // one isa::BlockCache block translation
  kHostDispatch,     // one host-ISS dispatch chunk (Cva6Core::run)
  kClusterDispatch,  // one PMCA kernel execution (Cluster::run_kernel)
  kSnapshotSave,     // HulkVSoc::save
  kSnapshotRestore,  // HulkVSoc::restore
  kSnapshotDigest,   // HulkVSoc::state_digest
  kThreadedLower,    // one block lowering to threaded code (§15)
  kBatchJob,         // one batch::run_jobs job
  kServeRequest,     // one serve daemon request, admission -> response
  kServePoint,       // one simulation point inside a serve request
};
inline constexpr size_t kNumSpanPhases =
    static_cast<size_t>(SpanPhase::kServePoint) + 1;

/// Stable lowercase name ("program_analyze", "batch_job", ...).
const char* phase_name(SpanPhase phase);

/// Monotonic wall-clock nanoseconds (std::chrono::steady_clock), the
/// library's only steady-clock read.
u64 now_ns();

namespace detail {
extern bool g_enabled;  // mirrors Registry enabled state; do not write
/// now_ns() calls so far in this process. Tests pin with it that the
/// observation-off paths read no clock.
u64 clock_reads();
}  // namespace detail

/// True when the registry is collecting — the only check a disabled
/// span performs.
inline bool enabled() { return detail::g_enabled; }

/// One retained span occurrence (Perfetto export, tests). Timestamps
/// are steady-clock ns; `start_ns` is relative to the registry's
/// steady anchor taken at enable().
struct SpanRecord {
  u64 start_ns = 0;
  u64 dur_ns = 0;
  SpanPhase phase{};
  u16 depth = 0;    // nesting depth on the recording thread (0 = top)
  u32 thread = 0;   // dense per-process thread index (export lanes)
};

/// Per-sweep summary batch::run_jobs reports into the registry (the
/// manifest's "sweeps" array).
struct SweepSummary {
  u64 jobs = 0;
  u32 workers = 0;
  u64 wall_ns = 0;
  u64 busy_ns = 0;        // sum of per-job wall times
  u64 p50_ns = 0;
  u64 p99_ns = 0;
  u64 max_in_flight = 0;  // peak concurrently-running jobs observed
  double jobs_per_s = 0.0;
  double utilization = 0.0;  // busy / (wall * workers)
};

/// The process-global telemetry registry.
class Registry {
 public:
  static Registry& instance();

  bool is_enabled() const { return enabled_; }
  /// Start collecting; anchors the steady/wall clock pair used for
  /// span timestamps and export alignment.
  void enable();
  void disable();
  /// Drop all histograms, spans, notes and sweep summaries.
  void reset();

  /// Record one duration into a phase histogram (span closing path;
  /// also usable directly for non-scoped durations).
  void record(SpanPhase phase, u64 dur_ns);
  /// Retain a span occurrence (called by the TLS flush).
  void retain(const SpanRecord* records, size_t n);

  HistogramData phase_histogram(SpanPhase phase) const {
    return phase_hist_[static_cast<size_t>(phase)].snapshot();
  }

  /// Flush the calling thread's TLS span buffer, then copy the
  /// retained spans (chronological per thread, threads interleaved by
  /// flush order).
  std::vector<SpanRecord> spans() const;
  /// Spans discarded because the retention cap was hit (histograms
  /// still counted them).
  u64 dropped_spans() const { return dropped_; }
  /// Cap on retained spans (default 256k). 0 means unlimited.
  void set_span_capacity(size_t cap) { span_capacity_ = cap; }

  /// Wall-clock (system_clock) ns-since-epoch captured at enable();
  /// pairs with the steady anchor so exports can place spans on the
  /// calendar.
  u64 wall_anchor_ns() const { return wall_anchor_ns_; }
  /// Steady-clock ns captured at enable(); SpanRecord::start_ns is
  /// relative to this.
  u64 steady_anchor_ns() const { return steady_anchor_ns_; }

  /// Identity notes for the run manifest (deduplicated, capped).
  void note_config_fingerprint(u64 fingerprint);
  void note_program_digest(std::string_view name, u64 digest);
  void note_sweep(const SweepSummary& sweep);
  std::vector<u64> config_fingerprints() const;
  std::vector<std::pair<std::string, u64>> program_digests() const;
  std::vector<SweepSummary> sweeps() const;

 private:
  Registry() = default;

  bool enabled_ = false;
  u64 wall_anchor_ns_ = 0;
  u64 steady_anchor_ns_ = 0;
  AtomicHistogram phase_hist_[kNumSpanPhases];

  // The members below are guarded by an internal mutex (telemetry.cpp).
  size_t span_capacity_ = size_t{256} << 10;
  u64 dropped_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<u64> fingerprints_;
  std::vector<std::pair<std::string, u64>> digests_;
  std::vector<SweepSummary> sweeps_;
};

/// Shorthand for the global registry.
inline Registry& registry() { return Registry::instance(); }

/// RAII wall-clock span. Constructing while disabled is free apart
/// from one branch; an armed span reads the clock twice and records
/// into the phase histogram + the TLS retention buffer on destruction.
class Span {
 public:
  explicit Span(SpanPhase phase) {
    if (enabled()) open(phase);
  }
  ~Span() {
    if (armed_) close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(SpanPhase phase);
  void close();

  u64 start_ns_ = 0;
  SpanPhase phase_{};
  bool armed_ = false;
};

/// Convenience: digest a guest-program image (FNV-1a over the words)
/// and note it in the registry under `name`. No-op while disabled.
void note_program(std::string_view name, const void* words, u64 bytes);

/// Bench wiring: reset + enable the registry when --telemetry was
/// given.
void configure(const report::BenchOptions& options);

/// Bench wiring: when --telemetry was given, flush spans, build the
/// run manifest from `rep` + the registry, and append it as one JSON
/// line to `<dir>/<bench>.jsonl` (dir from --telemetry=<dir>, default
/// "runs"). Writes a note to stderr only — stdout stays byte-identical.
void finish_bench(const report::MetricsReport& rep,
                  const report::BenchOptions& options);

}  // namespace hulkv::telemetry
