// SoC-wide event tracing (DESIGN.md section 9).
//
// Every simulated block can emit cycle-stamped events into one global
// TraceSink. Tracing is purely observational: no timing model consults
// the sink, so cycle counts are bit-identical whether tracing is on or
// off. When tracing is disabled the per-event cost at a call site is a
// single branch on `trace::enabled()` (an inline load of a plain bool).
//
// Consumer: trace/chrome_trace.hpp, the Perfetto/Chrome `trace_event`
// JSON export.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace hulkv::trace {

/// Event taxonomy. Each value maps 1:1 onto a Chrome trace_event name
/// (see `event_name`).
enum class Ev : u16 {
  // Cores.
  kRun,            // complete: one host run / one PMCA kernel execution
  kCommitBatch,    // counter: instructions retired since the last batch
  kStall,          // instant: long load (value = stall cycles, arg = addr)
  // Caches (L1 + LLC).
  kHitBatch,       // counter: L1 hits since the last batch
  kHit,            // instant: LLC hit (value = line address)
  kMiss,           // instant: line miss / refill (value = line address)
  kWriteback,      // instant: dirty line written back (value = line addr)
  kEvict,          // instant: LLC eviction (value = line address)
  kBypass,         // instant: LLC bypass of a non-cacheable access
  // External memory devices.
  kMemXact,        // complete: one device transaction (value = bytes,
                   //           arg = packed breakdown, see xact_arg)
  kRefreshCollision,  // instant: burst collided with refresh (value =
                      //          extra cycles spent waiting)
  // TCDM.
  kAccessBatch,    // counter: TCDM accesses since the last batch
  kConflict,       // instant: bank conflict (value = bank index)
  // DMA engines.
  kDmaJob,         // complete: one cluster-DMA / uDMA job (value = bytes)
  // Synchronisation and the offload runtime.
  kBarrier,        // complete: last arrival -> wake-up (value = #cores)
  kDispatch,      // instant: cluster team dispatch (value = team size)
  kCodeLoad,       // complete: lazy kernel-image copy to L2 (value = bytes)
  kMarshal,        // complete: offload argument marshalling
  kMailbox,        // instant: doorbell / completion token (value = word)
  kKernel,         // complete: kernel phase of one offload
  kOffload,        // complete: whole offload (value = kernel index)
  // Profiler (src/profile/).
  kStallCycles,    // counter: attributed stall cycles since the last
                   //          flush (one track per core x stall reason)
};

/// Number of event types (for array-indexed per-type state).
inline constexpr size_t kNumEventTypes =
    static_cast<size_t>(Ev::kStallCycles) + 1;

/// Stable lowercase name of an event type ("miss", "mem_xact", ...).
const char* event_name(Ev type);

/// How an event type renders in Chrome trace_event terms.
enum class Phase : u8 {
  kInstant,   // zero-duration marker            -> "i"
  kComplete,  // interval with start + duration  -> "X"
  kCounter,   // accumulating counter delta      -> "C"
};
Phase event_phase(Ev type);

/// One recorded event. Plain data; `dur`/`value`/`arg` meaning depends
/// on the event type (see the Ev comments above).
struct Event {
  Cycles ts = 0;    // start timestamp in cycles
  Cycles dur = 0;   // duration in cycles (complete events only)
  u64 value = 0;    // primary payload (delta for counters)
  u64 arg = 0;      // secondary payload
  u32 track = 0;    // interned track id
  Ev type{};
};

/// Packed latency breakdown carried in `Event::arg` by kMemXact events.
struct XactArg {
  bool write = false;
  u32 bursts = 0;              // CA/command phases issued
  u32 refresh_collisions = 0;  // bursts delayed by refresh
};
u64 pack_xact_arg(const XactArg& a);
XactArg unpack_xact_arg(u64 packed);

/// Sentinel for an unregistered track id.
inline constexpr u32 kNoTrack = 0xFFFF'FFFFu;

/// Cached track registration. Blocks keep one TrackHandle per track and
/// resolve it lazily at first emit, so construction never touches the
/// sink and renaming stays in one place. The generation check keeps a
/// stale handle from pointing at a recycled id after TraceSink::clear().
struct TrackHandle {
  u32 id = kNoTrack;
  u32 gen = 0;
};

namespace detail {
extern bool g_enabled;  // mirrors TraceSink enabled state; do not write
}  // namespace detail

/// True when the global sink is recording. This is the only check hot
/// paths perform when tracing is off.
inline bool enabled() { return detail::g_enabled; }

/// The global event sink. One per process: simulated time is one
/// timeline, and interning tracks by name keeps ids stable across the
/// SoC blocks that emit into it.
class TraceSink {
 public:
  static TraceSink& instance();

  bool is_enabled() const { return enabled_; }
  void enable();
  void disable();

  /// Drop all events and tracks (handles re-register via generation).
  void clear();

  /// Intern a track by name; returns its stable id.
  u32 track(std::string_view name);

  /// Resolve a cached handle, registering the track on first use.
  u32 resolve(TrackHandle& handle, std::string_view name);

  /// Id of an existing track, or kNoTrack.
  u32 find_track(std::string_view name) const;

  const std::vector<std::string>& track_names() const { return tracks_; }

  void instant(u32 track, Ev type, Cycles ts, u64 value = 0, u64 arg = 0);
  void complete(u32 track, Ev type, Cycles start, Cycles end,
                u64 value = 0, u64 arg = 0);
  void counter(u32 track, Ev type, Cycles ts, u64 delta);

  const std::vector<Event>& events() const { return events_; }

  /// Largest end-of-event timestamp recorded so far.
  Cycles max_timestamp() const { return max_ts_; }

  /// Events discarded because the capacity cap was hit.
  u64 dropped() const { return dropped_; }

  /// Cap on retained events (default 4M, ~160 MB). 0 means unlimited.
  void set_capacity(size_t max_events) { capacity_ = max_events; }

 private:
  TraceSink() = default;
  void push(const Event& e);

  bool enabled_ = false;
  u32 generation_ = 1;
  size_t capacity_ = size_t{4} << 20;
  u64 dropped_ = 0;
  Cycles max_ts_ = 0;
  std::vector<std::string> tracks_;
  std::vector<Event> events_;
};

/// Shorthand for the global sink.
inline TraceSink& sink() { return TraceSink::instance(); }

}  // namespace hulkv::trace
