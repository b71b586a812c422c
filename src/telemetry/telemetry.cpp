#include "telemetry/telemetry.hpp"

#include <atomic>
#include <chrono>
#include <mutex>

#include "report/report.hpp"
#include "snapshot/archive.hpp"

namespace hulkv::telemetry {

namespace detail {
bool g_enabled = false;
}  // namespace detail

namespace {

/// Guards the registry's retained-span / note vectors. A plain global:
/// the registry itself is a function-local static and the mutex must
/// outlive TLS buffer destructors running at thread exit.
std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

std::atomic<u32> g_thread_counter{0};
std::atomic<u64> g_clock_reads{0};

/// Per-thread span retention buffer. Spans are appended lock-free on
/// the owning thread and flushed into the registry under the mutex
/// when the buffer fills or the thread exits (worker pools join before
/// the orchestration thread reads spans, so nothing is left behind).
struct TlsBuffer {
  static constexpr size_t kFlushAt = 256;
  std::vector<SpanRecord> records;
  u32 depth = 0;
  u32 thread_idx;

  TlsBuffer()
      : thread_idx(g_thread_counter.fetch_add(1,
                                              std::memory_order_relaxed)) {}
  ~TlsBuffer() { flush(); }

  void flush() {
    if (records.empty()) return;
    registry().retain(records.data(), records.size());
    records.clear();
  }
};

TlsBuffer& tls() {
  thread_local TlsBuffer buf;
  return buf;
}

}  // namespace

const char* phase_name(SpanPhase phase) {
  switch (phase) {
    case SpanPhase::kProgramAnalyze: return "program_analyze";
    case SpanPhase::kProgramLoad: return "program_load";
    case SpanPhase::kBlockTranslate: return "block_translate";
    case SpanPhase::kHostDispatch: return "host_dispatch";
    case SpanPhase::kClusterDispatch: return "cluster_dispatch";
    case SpanPhase::kSnapshotSave: return "snapshot_save";
    case SpanPhase::kSnapshotRestore: return "snapshot_restore";
    case SpanPhase::kSnapshotDigest: return "snapshot_digest";
    case SpanPhase::kThreadedLower: return "threaded_lower";
    case SpanPhase::kBatchJob: return "batch_job";
    case SpanPhase::kServeRequest: return "serve_request";
    case SpanPhase::kServePoint: return "serve_point";
  }
  return "?";
}

u64 now_ns() {
  g_clock_reads.fetch_add(1, std::memory_order_relaxed);
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

u64 detail::clock_reads() {
  return g_clock_reads.load(std::memory_order_relaxed);
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::enable() {
  if (enabled_) return;
  enabled_ = true;
  wall_anchor_ns_ = static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  steady_anchor_ns_ = now_ns();
  detail::g_enabled = true;
}

void Registry::disable() {
  enabled_ = false;
  detail::g_enabled = false;
}

void Registry::reset() {
  for (auto& h : phase_hist_) h.reset();
  const std::lock_guard<std::mutex> lock(registry_mutex());
  tls().records.clear();
  tls().depth = 0;
  spans_.clear();
  dropped_ = 0;
  fingerprints_.clear();
  digests_.clear();
  sweeps_.clear();
}

void Registry::record(SpanPhase phase, u64 dur_ns) {
  phase_hist_[static_cast<size_t>(phase)].record(dur_ns);
}

void Registry::retain(const SpanRecord* records, size_t n) {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  for (size_t i = 0; i < n; ++i) {
    if (span_capacity_ != 0 && spans_.size() >= span_capacity_) {
      dropped_ += n - i;
      return;
    }
    spans_.push_back(records[i]);
  }
}

std::vector<SpanRecord> Registry::spans() const {
  tls().flush();
  const std::lock_guard<std::mutex> lock(registry_mutex());
  return spans_;
}

void Registry::note_config_fingerprint(u64 fingerprint) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(registry_mutex());
  for (const u64 seen : fingerprints_) {
    if (seen == fingerprint) return;
  }
  if (fingerprints_.size() < 64) fingerprints_.push_back(fingerprint);
}

void Registry::note_program_digest(std::string_view name, u64 digest) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(registry_mutex());
  for (const auto& [seen_name, seen_digest] : digests_) {
    if (seen_name == name && seen_digest == digest) return;
  }
  if (digests_.size() < 256) digests_.emplace_back(std::string(name), digest);
}

void Registry::note_sweep(const SweepSummary& sweep) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(registry_mutex());
  if (sweeps_.size() < 256) sweeps_.push_back(sweep);
}

std::vector<u64> Registry::config_fingerprints() const {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  return fingerprints_;
}

std::vector<std::pair<std::string, u64>> Registry::program_digests() const {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  return digests_;
}

std::vector<SweepSummary> Registry::sweeps() const {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  return sweeps_;
}

void Span::open(SpanPhase phase) {
  phase_ = phase;
  armed_ = true;
  ++tls().depth;
  start_ns_ = now_ns();
}

void Span::close() {
  const u64 end = now_ns();
  TlsBuffer& buf = tls();
  const u16 depth = static_cast<u16>(buf.depth > 0 ? --buf.depth : 0);
  Registry& reg = registry();
  const u64 dur = end - start_ns_;
  reg.record(phase_, dur);
  const u64 anchor = reg.steady_anchor_ns();
  buf.records.push_back(SpanRecord{
      start_ns_ >= anchor ? start_ns_ - anchor : 0, dur, phase_, depth,
      buf.thread_idx});
  if (buf.records.size() >= TlsBuffer::kFlushAt) buf.flush();
}

void note_program(std::string_view name, const void* words, u64 bytes) {
  if (!enabled()) return;
  registry().note_program_digest(
      name, snapshot::fnv1a(snapshot::kFnvOffset, words, bytes));
}

void configure(const report::BenchOptions& options) {
  if (!options.telemetry) return;
  Registry& reg = registry();
  reg.reset();
  reg.enable();
}

}  // namespace hulkv::telemetry
