// Cycle-attribution primitives (hulkv::profile, DESIGN.md section 12).
//
// This header is the only piece of the profiler the timing models see.
// While a core executes one instruction, the profiler parks a pointer to
// that core's AttrScratch in thread-local storage; every timing model on
// the instruction's path calls add(reason, cycles) to attribute the
// cycles it added to the core-visible completion time. When no
// instruction bracket is open (profiling disabled, or the access is a
// posted write the core does not wait for) add() is a no-op, so the
// disabled-mode cost at a call site is one thread-local load and a
// branch — and none of this ever feeds back into timing.
//
// Composition rule (claim subtraction): a model that calls nested timed
// models records only its *own* share,
//
//   own = (done - now) - (claimed() after - claimed() before)
//
// so a host L1 refill that walks L1 -> LLC -> HyperRAM splits the stall
// into kHostDcacheMiss + kLlcWait + kExtMemWait with no double counting.
// Posted/occupancy-only downstream accesses (write-through forwards,
// posted AXI stores, asynchronous DMA transfers) are wrapped in a
// SuppressGuard: the core never waits for them, so they must not claim.
#pragma once

#include <atomic>

#include "common/types.hpp"

namespace hulkv::profile {

/// Stall taxonomy. Everything an instruction's cycles can be attributed
/// to beyond single-issue execution (see DESIGN.md section 12.2).
enum class Reason : u8 {
  // Host (CVA6).
  kHostIcacheMiss = 0,  // L1I refill
  kHostDcacheMiss,      // L1D refill
  kHostTlbWalk,         // ITLB/DTLB page-table walk (includes PTE reads)
  kHostWfi,             // wait-for-interrupt sleep
  kUncachedBus,         // uncached crossbar read (MMIO, L2, TCDM)
  // Shared memory system.
  kLlcWait,             // LLC tag/data pipeline and refill bookkeeping
  kExtMemWait,          // external memory device (HyperRAM / DDR / RPC)
  kOffloadWait,         // host side of an offload (doorbell to mailbox)
  // Cluster (PMCA).
  kClIcacheMiss,        // shared/private cluster I$ refill
  kTcdmConflict,        // TCDM bank conflict serialization
  kLsuPark,             // demand AXI access parked in the cluster LSU
  kDmaWait,             // mchan_wait envcall until DMA drain
  kEvuSleep,            // event-unit sleep until team dispatch
  kBarrierWait,         // barrier arrival until team release
  // Fallback.
  kOther,               // unattributed out-of-band clock advance
};

inline constexpr size_t kNumReasons = static_cast<size_t>(Reason::kOther) + 1;

/// Stable lowercase name ("llc_wait", "tcdm_conflict", ...).
const char* reason_name(Reason r);

/// Per-core accumulation area for the instruction currently executing.
struct AttrScratch {
  u64 vals[kNumReasons] = {};
  u32 touched = 0;    // bitmask over Reason of non-zero vals entries
  u32 suppress = 0;   // >0: add() is a no-op (posted downstream access)
  u64 claimed = 0;    // running sum of vals, for claim subtraction
};

namespace detail {
// constinit: without it every access from another TU goes through the
// thread-wrapper (guarded init check + PLT call) instead of one
// fs-relative load.
extern constinit thread_local AttrScratch* g_scratch;  // open bracket
extern bool g_enabled;       // mirrors Session enabled state
extern u32 g_generation;     // bumped by Session::reset()
/// Entries into the cores' observed loops (Cva6Core::dispatch<true, *>,
/// PmcaCore::slice<true>) so far in this process. Tests pin with it that
/// a run with the profiler and tracing off never enters them.
extern std::atomic<u64> g_observed_entries;
inline u64 observed_entries() {
  return g_observed_entries.load(std::memory_order_relaxed);
}
}  // namespace detail

/// True when the profiler session is collecting. Cores check this (via
/// profile::attach) once per run/slice; it is the only cost when off.
inline bool enabled() { return detail::g_enabled; }

/// True while an instruction bracket is open on this thread.
inline bool collecting() { return detail::g_scratch != nullptr; }

/// Attribute `cycles` of the current instruction's latency to `r`.
inline void add(Reason r, Cycles cycles) {
  AttrScratch* s = detail::g_scratch;
  if (s == nullptr || cycles == 0 || s->suppress != 0) return;
  const auto i = static_cast<size_t>(r);
  s->vals[i] += cycles;
  s->touched |= 1u << i;
  s->claimed += cycles;
}

/// Cycles already claimed by nested models inside the open bracket.
inline u64 claimed() {
  const AttrScratch* s = detail::g_scratch;
  return s == nullptr ? 0 : s->claimed;
}

/// `span` minus what nested models already claimed, saturating at zero
/// (base/pipeline cycles inside the span can make the remainder small).
inline Cycles own_share(Cycles span, u64 children) {
  return span > children ? span - static_cast<Cycles>(children) : 0;
}

/// RAII mute for downstream accesses the core does not wait for
/// (write-through forwards, posted AXI stores, asynchronous DMA).
class SuppressGuard {
 public:
  SuppressGuard() : s_(detail::g_scratch) {
    if (s_ != nullptr) ++s_->suppress;
  }
  ~SuppressGuard() {
    if (s_ != nullptr) --s_->suppress;
  }
  SuppressGuard(const SuppressGuard&) = delete;
  SuppressGuard& operator=(const SuppressGuard&) = delete;

 private:
  AttrScratch* s_;
};

}  // namespace hulkv::profile
