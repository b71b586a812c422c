// PMCA core model: one of the 8 CV32E4/RI5CY-class RV32 cores of the
// Programmable Multi-Core Accelerator (paper section III-C).
//
// Functional RV32-IMF instruction-set simulator with the XpulpV2-style
// DSP extensions the paper's speedups rest on:
//   * zero-overhead hardware loops (2 nesting levels),
//   * post-increment loads/stores (address update folded into the access),
//   * single-cycle MAC,
//   * integer SIMD on 4x8-bit / 2x16-bit lanes incl. dot-product-
//     accumulate (pv.sdotsp.*),
//   * packed FP16 SIMD with FP32 accumulation (vfmac.h / vfdotpex.s.h).
//
// Timing: 4-stage in-order pipeline modelled as 1 instruction/cycle;
// TCDM accesses complete in one cycle unless a bank conflict serialises
// them; taken branches pay a 2-cycle flush; instruction fetch goes
// through the two-level cluster I-cache. Demand accesses outside the
// TCDM cross the AXI port (higher latency) — kernels avoid them by
// construction, exactly like real PULP software.
//
// The PMCA bare-metal runtime reaches the cluster devices (event unit
// barrier, DMA, end-of-offload) through the environment-call interface:
// `ecall` with a7 = envcall id. The cluster installs the handler; see
// cluster.hpp.
#pragma once

#include <functional>

#include "cluster/icache.hpp"
#include "cluster/sched.hpp"
#include "cluster/tcdm.hpp"
#include "common/stats.hpp"
#include "isa/block_cache.hpp"
#include "isa/decoder.hpp"
#include "mem/interconnect.hpp"
#include "profile/profile.hpp"

namespace hulkv::cluster {

/// Environment-call ids (a7) used by the PMCA bare-metal runtime.
namespace envcall {
inline constexpr u64 kExit = 0;       // end of this core's kernel
inline constexpr u64 kBarrier = 1;    // event-unit team barrier
inline constexpr u64 kDma1d = 2;      // a0=dst a1=src a2=bytes -> a0=job
inline constexpr u64 kDma2d = 3;      // a0..a4 dst,src,row,rows,stride
inline constexpr u64 kDmaWait = 4;    // wait all outstanding jobs
inline constexpr u64 kCoreCount = 5;  // a0 = number of cores in the team
}  // namespace envcall

struct PmcaCoreConfig {
  u32 core_id = 0;
  Cycles mul_latency = 0;    // single-cycle multiplier / MAC
  Cycles div_latency = 16;
  Cycles fpu_latency = 0;    // pipelined shared FPU, 1/cycle throughput
  Cycles taken_branch_penalty = 2;
  Cycles jump_penalty = 1;
};

class PmcaCore {
 public:
  /// Instruction handler table (pmca_core.cpp); needs private access.
  friend struct ThreadedPmca;

  enum class State { kRunning, kBlocked, kFinished };

  /// Handles ecall. May block or finish the core (set_state) and may
  /// advance its clock to model service time.
  using EnvHandler = std::function<void(PmcaCore&)>;

  PmcaCore(const PmcaCoreConfig& config, Tcdm* tcdm, Addr tcdm_base,
           ClusterIcache* icache, mem::SocBus* bus);
  // The block cache lowers with a pointer to config_: the core stays put.
  PmcaCore(const PmcaCore&) = delete;
  PmcaCore& operator=(const PmcaCore&) = delete;

  /// Prepare for a new kernel: clear registers and loops, set the entry
  /// point, keep the clock (time continues across offloads).
  void reset_for_run(Addr entry);

  /// Execute a run of instructions from the decoded-block cache while
  /// this core remains the cluster's laggard: runs until the core is no
  /// longer kRunning, an environment call retires (its side effects —
  /// barrier wake-ups, DMA — must be observed by the scheduler), or the
  /// core's packed key CoreScheduler::key(cycle, core_id) reaches
  /// `limit` in front of a shared instruction — the scheduler passes
  /// the runner-up core's key (CoreScheduler::kIdle: no limit) so
  /// time-ordering of shared-resource reservations is exactly that of
  /// per-instruction min-clock scheduling. Executes at least one and at
  /// most `max_instrs` instructions. Returns true when the slice parked:
  /// it stopped at the limit in front of a shared instruction. A slice
  /// that retires an envcall or runs out of `max_instrs` returns false.
  bool run_slice(u64 limit, u64 max_instrs = UINT64_MAX);

  // ---- state ----
  State state() const { return state_; }
  void set_state(State s) { state_ = s; }
  u32 core_id() const { return config_.core_id; }

  u32 reg(u8 index) const { return x_[index]; }
  void set_reg(u8 index, u32 value) {
    if (index != 0) x_[index] = value;
  }
  u32 freg(u8 index) const { return f_[index]; }
  void set_freg(u8 index, u32 value) { f_[index] = value; }
  Addr pc() const { return pc_; }

  Cycles now() const { return cycle_; }
  void advance_to(Cycles cycle) {
    if (cycle > cycle_) cycle_ = cycle;
  }

  void set_env_handler(EnvHandler handler) { env_ = std::move(handler); }

  /// Drop cached decoded blocks (O(1) generation bump; stale blocks
  /// re-translate on next dispatch).
  void invalidate_decode_cache() { blocks_.invalidate(); }
  /// Range-scoped variant: no-op unless [base, base+bytes) overlaps
  /// code this core actually translated.
  void invalidate_decode_cache(Addr base, u64 bytes) {
    blocks_.invalidate_range(base, bytes);
  }
  /// Decoded-block cache (introspection for tests and stats).
  const isa::BlockCache& decode_blocks() const { return blocks_; }
  isa::BlockCache& decode_blocks() { return blocks_; }

  /// Emit one log line per retired instruction (LogLevel::kTrace).
  void set_trace(bool enabled) { trace_ = enabled; }

  /// Close out this core's trace for one kernel run: emits the per-core
  /// `run` interval [dispatched, now] and flushes the commit batch so
  /// the trace's commit totals are exact. Called by the cluster scheduler.
  void trace_kernel_done(Cycles dispatched);

  StatGroup& stats() { return stats_; }
  u64 instret() const { return instret_; }

  /// Tell the cycle profiler why this core's next idle gap happened
  /// (barrier wake-up, dispatch sleep). Called by the cluster when it
  /// advances a blocked core's clock from outside an instruction.
  void profile_note_gap(profile::Reason reason) {
    if (profile::CoreProfile* prof =
            profile::attach(prof_handle_, stats_.name())) {
      prof->note_gap(reason);
    }
  }

  /// Snapshot traversal: registers, clock, run state, hardware loops,
  /// stats. The decoded-block cache is invalidated on load.
  void serialize(snapshot::Archive& ar);

 private:
  /// Trap ops (ecall/ebreak and ops without a handler), executed at
  /// their exact pc.
  void trap(const isa::Instr& instr);

  /// Where the slice loop stopped in front of `code[index]` of a
  /// block (DESIGN.md §10). Not simulated state: never serialized,
  /// never digested.
  struct ResumeCursor {
    isa::DecodedBlock* block = nullptr;
    u32 index = 0;
    u64 generation = 0;  // BlockCache generation the block belongs to
  };

  /// run_slice() body: pre-resolved handler pointers, no per-instruction
  /// opcode switch or field decode. The unobserved instantiation starts
  /// at cursor_ when it is still valid; the observed one brackets each
  /// retire for the profiler and the tracers (`lockstep`: tracing is on,
  /// every instruction counts as shared). Each instantiation is a
  /// function of its own, like Cva6Core::dispatch.
  template <bool kObserved>
  [[gnu::noinline]] HULKV_HOT_CODE bool slice(u64 limit, u64 max_instrs,
                                              bool lockstep,
                                              profile::CoreProfile* prof);
  /// set_trace's per-instruction disassembly log.
  void log_instr(const isa::Instr& instr) const;
  /// Observed retire: close the profiler bracket, batch the commit.
  void observe_retire(profile::CoreProfile* prof,
                      const isa::DecodedBlock& block, size_t index);
  /// True when this core's (cycle, core_id) key has reached `limit`.
  bool at_limit(u64 limit) const {
    return CoreScheduler::key(cycle_, config_.core_id) >= limit;
  }
  void apply_hwloops();

  u32 load(Addr addr, u32 bytes, bool sign, Cycles issue);
  void store(Addr addr, u32 value, u32 bytes, Cycles issue);
  /// Demand accesses outside the TCDM, over the cluster's AXI port.
  u32 load_axi(Addr addr, u32 bytes, Cycles issue);
  void store_axi(Addr addr, u32 value, u32 bytes, Cycles issue);
  bool in_tcdm(Addr addr) const {
    return addr >= tcdm_base_ && addr < tcdm_base_ + tcdm_size_;
  }

  struct HwLoop {
    Addr start = 0;
    Addr end = 0;
    u32 count = 0;
  };

  void trace_commit();
  void trace_stall(Cycles issue, Cycles stall, Addr addr);

  PmcaCoreConfig config_;
  Tcdm* tcdm_;
  Addr tcdm_base_;
  // Same-page fast path to the TCDM front-end: raw storage pointer and
  // size cached at construction (the TCDM backing vector never resizes),
  // so the common load/store skips two indirections per access.
  u8* tcdm_data_;
  u64 tcdm_size_;
  ClusterIcache* icache_;
  mem::SocBus* bus_;
  StatGroup stats_;
  // Interned counter slots for the per-instruction hot path.
  u64& ctr_loads_;
  u64& ctr_stores_;
  u64& ctr_mac_ops_;
  u64& ctr_simd_ops_;
  u64& ctr_taken_branches_;
  u64& ctr_hwloop_backedges_;
  trace::TrackHandle trace_track_;
  u32 pending_commits_ = 0;

  u32 x_[32] = {};
  u32 f_[32] = {};
  Addr pc_ = 0;
  Addr next_pc_ = 0;
  Cycles cycle_ = 0;
  Cycles issue_cycle_ = 0;
  u64 instret_ = 0;
  State state_ = State::kFinished;
  HwLoop loops_[2];
  Addr fetch_line_ = ~0ull;

  bool trace_ = false;
  isa::BlockCache blocks_;
  EnvHandler env_;
  // Set only where the slice loop stops mid-block; dropped by the next
  // slice and by reset_for_run() and snapshot load — the only other
  // writers of pc_ and fetch_line_.
  ResumeCursor cursor_;
  // Cold (touched once per run_slice(), not per instruction); kept last
  // so it does not shift the execution-state members across cache lines.
  profile::Handle prof_handle_;  // cycle-attribution registration
};

/// Handler lookup for one op (null fn == trap op). Exposed so
/// threaded_test can assert exhaustive table coverage.
isa::threaded::HandlerInfo threaded_resolve(isa::Op op,
                                            const PmcaCoreConfig& config);

}  // namespace hulkv::cluster
