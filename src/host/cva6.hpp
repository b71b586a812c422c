// CVA6 host-core model (paper section III).
//
// CVA6 is a 6-stage, single-issue, in-order RV64GC application core with
// 16 kB of L1 I-cache and 32 kB of write-through L1 D-cache. This model is
// a functional RV64-IMFD-subset instruction-set simulator coupled to an
// in-order timing model:
//
//  * one issue per cycle, plus per-instruction execution latencies
//    (multiplier, divider, FPU) — dependent-chain timing, which matches
//    the scalar DSP kernels the evaluation runs on the host;
//  * instruction fetch goes through the L1I model once per cache line;
//  * loads go through the L1D model (write-through, no write-allocate);
//    stores retire through a store buffer, consuming downstream
//    bandwidth without stalling the core;
//  * taken control flow pays a pipeline-flush penalty.
//
// External-memory addresses are cached by L1D; scratchpads and MMIO are
// accessed uncached (the write-through L1 plus uncached shared regions is
// what gives HULK-V its "simple coherency with other masters", section
// III). Compressed instructions are not modelled (RV64GC -> RV64G
// subset); all code is emitted by the in-memory assembler at 4-byte
// alignment, and the I-cache timing sees the same footprint.
#pragma once

#include <functional>
#include <memory>

#include "common/bitutil.hpp"
#include "common/stats.hpp"
#include "isa/block_cache.hpp"
#include "isa/decoder.hpp"
#include "host/tlb.hpp"
#include "mem/cache.hpp"
#include "mem/interconnect.hpp"
#include "profile/profile.hpp"

namespace hulkv::host {

struct Cva6Config {
  Addr boot_pc = mem::map::kBootRomBase;

  /// Model SV39 address-translation timing (separate I/D TLBs + 3-level
  /// page-table walks through the L1D path). Off by default: the paper's
  /// FPGA performance counters are sampled on bare-metal binaries; the
  /// Linux-overhead study enables it.
  bool enable_mmu = false;
  TlbConfig tlb;

  // Execution latencies in cycles beyond the 1-cycle issue.
  Cycles mul_latency = 1;
  Cycles div_latency = 20;
  Cycles fpu_latency = 2;    // add/mul/fma/cvt
  Cycles fdiv_latency = 20;  // div/sqrt
  Cycles taken_branch_penalty = 4;
  Cycles jump_penalty = 2;

  mem::CacheConfig icache{.name = "host_l1i",
                          .size_bytes = 16 * 1024,
                          .line_bytes = 64,
                          .ways = 4,
                          .write_through = true,
                          .write_allocate = false,
                          .profile_reason =
                              profile::Reason::kHostIcacheMiss,
                          .hit_latency = 0,
                          .fill_penalty = 1};
  mem::CacheConfig dcache{.name = "host_l1d",
                          .size_bytes = 32 * 1024,
                          .line_bytes = 64,
                          .ways = 8,
                          .write_through = true,
                          .write_allocate = false,
                          .profile_reason =
                              profile::Reason::kHostDcacheMiss,
                          .hit_latency = 0,
                          .fill_penalty = 1};
};

class Cva6Core {
 public:
  /// Instruction handler table (cva6.cpp); needs private access.
  friend struct ThreadedHost;

  /// Result of a run() segment.
  struct RunResult {
    Cycles cycles = 0;     // cycles consumed by this segment
    u64 instret = 0;       // instructions retired in this segment
    u64 exit_code = 0;     // a0 at the exit ecall
    bool exited = false;   // saw the exit syscall
  };

  /// What an ecall handler tells the core to do next.
  enum class SyscallAction { kContinue, kExit };

  /// Invoked on every ECALL; a7 selects the service (runtime offload
  /// calls, exit, console writes). The handler may advance the core's
  /// clock via advance_to() to model time spent in the service.
  using SyscallHandler = std::function<SyscallAction(Cva6Core&)>;

  /// Invoked on WFI with the current cycle; returns the wake-up cycle.
  using WfiHandler = std::function<Cycles(Cycles now)>;

  Cva6Core(const Cva6Config& config, mem::SocBus* bus);

  // ---- architectural state ----
  u64 reg(u8 index) const { return x_[index]; }
  void set_reg(u8 index, u64 value) {
    if (index != 0) x_[index] = value;
  }
  u64 freg(u8 index) const { return f_[index]; }
  void set_freg(u8 index, u64 value) { f_[index] = value; }
  Addr pc() const { return pc_; }
  void set_pc(Addr pc) { pc_ = pc; }

  // ---- time ----
  Cycles now() const { return cycle_; }
  /// Move the core's clock forward (never backward) — used by syscall
  /// and WFI handlers to model time spent outside the core.
  void advance_to(Cycles cycle);

  // ---- hooks ----
  void set_syscall_handler(SyscallHandler handler) {
    syscall_ = std::move(handler);
  }
  void set_wfi_handler(WfiHandler handler) { wfi_ = std::move(handler); }

  /// Emit one log line per retired instruction (LogLevel::kTrace,
  /// component "cva6"): cycle, pc, disassembly. For debugging programs.
  void set_trace(bool enabled) { trace_ = enabled; }

  /// Execute until the exit syscall or `max_instructions`.
  RunResult run(u64 max_instructions = UINT64_MAX);

  /// Drop cached decoded blocks (call after rewriting code). O(1):
  /// bumps the block-cache generation; stale blocks re-translate on
  /// their next dispatch.
  void invalidate_decode_cache() { blocks_.invalidate(); }
  /// Range-scoped variant: only invalidates when [base, base+bytes)
  /// overlaps code that was actually translated.
  void invalidate_decode_cache(Addr base, u64 bytes) {
    blocks_.invalidate_range(base, bytes);
  }
  /// Decoded-block cache (introspection for tests and stats).
  const isa::BlockCache& decode_blocks() const { return blocks_; }
  isa::BlockCache& decode_blocks() { return blocks_; }

  /// Snapshot traversal: architectural registers, clock, L1/TLB models,
  /// stats. The decoded-block cache is derived state and is invalidated
  /// on load (blocks re-translate from restored memory on demand).
  void serialize(snapshot::Archive& ar);

  mem::CacheModel& icache() { return icache_; }
  mem::CacheModel& dcache() { return dcache_; }
  /// Data/instruction TLBs (nullptr when the MMU model is disabled).
  Tlb* dtlb() { return dtlb_.get(); }
  Tlb* itlb() { return itlb_.get(); }
  StatGroup& stats() { return stats_; }
  u64 instret() const { return instret_; }
  mem::SocBus& bus() { return *bus_; }

 private:
  /// Trap ops (ecall/ebreak/wfi and ops without a handler), executed at
  /// their exact pc.
  void trap(const isa::Instr& instr);
  /// Block-dispatch loop of run(): pre-resolved handler pointers, no
  /// per-instruction decode/switch/cache-probe. The observed
  /// instantiation brackets each retire for the profiler and the
  /// tracers; kBounded is whether the instruction budget can bind
  /// (run()'s default UINT64_MAX cannot).
  template <bool kObserved, bool kBounded>
  void dispatch(u64 max_instructions, u64 start_instret,
                profile::CoreProfile* prof);
  /// set_trace's per-instruction disassembly log.
  void log_instr(Addr pc, const isa::Instr& instr) const;
  /// Observed retire: close the profiler bracket, batch the commit.
  void observe_retire(profile::CoreProfile* prof,
                      const isa::DecodedBlock& block, size_t index);
  /// I-cache (+ITLB) timing for a fetch at `pc`: paid once per line.
  void fetch_timing(Addr pc) {
    if (align_down(pc, config_.icache.line_bytes) != fetch_line_) {
      fetch_new_line(pc);
    }
  }
  void fetch_new_line(Addr pc);
  /// A TLB translation of `addr` at cycle_, booked as one walk stall.
  void tlb_walk(Tlb& tlb, Addr addr);

  // Memory helpers (functional + timing). cva6.cpp inlines load and
  // store into each handler, so `bytes` is a constant there.
  u64 load(Addr addr, u32 bytes, bool sign);
  void store(Addr addr, u64 value, u32 bytes);
  bool dram_cached(Addr addr) const { return addr >= mem::map::kDramBase; }

  u64 csr_read(u16 csr) const;

  void trace_commit();

  Cva6Config config_;
  mem::SocBus* bus_;
  // Functional fast path to external memory: the common load/store in
  // the DRAM window skips the bus's region scan and hits the backing
  // store's page-pointer cache directly (timing is unchanged — the
  // L1/TLB models still run).
  mem::BackingStore* dram_;
  mem::CacheModel icache_;
  mem::CacheModel dcache_;
  std::unique_ptr<Tlb> itlb_;
  std::unique_ptr<Tlb> dtlb_;
  StatGroup stats_;
  // Interned counter slots for the per-instruction hot path.
  u64& ctr_loads_;
  u64& ctr_stores_;
  u64& ctr_taken_branches_;
  u64& ctr_branch_mispredicts_;
  trace::TrackHandle trace_track_;
  u32 pending_commits_ = 0;

  u64 x_[32] = {};
  u64 f_[32] = {};
  Addr pc_ = 0;
  Addr next_pc_ = 0;
  Cycles cycle_ = 0;
  u64 instret_ = 0;
  bool exited_ = false;
  u64 exit_code_ = 0;
  Addr fetch_line_ = ~0ull;  // current I-cache line (64-byte aligned)

  bool trace_ = false;
  isa::BlockCache blocks_;
  SyscallHandler syscall_;
  WfiHandler wfi_;
  // Cold (touched once per run(), not per instruction); kept last so it
  // does not shift the execution-state members across cache lines.
  profile::Handle prof_handle_;  // cycle-attribution registration
};

/// Handler lookup for one op (null fn == trap op). Exposed so
/// threaded_test can assert exhaustive table coverage.
isa::threaded::HandlerInfo threaded_resolve(isa::Op op,
                                            const Cva6Config& config);

}  // namespace hulkv::host
