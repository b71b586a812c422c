// Host-side offload runtime (paper section IV, figure 4).
//
// Models the Linux driver + HERO-derived OpenMP runtime path:
//
//   1. kernel binaries live in external memory (the pages of the Linux
//      process); the *first* offload of a kernel copies its image into
//      the L2SPM — the "lazy" code load whose cost dominates short
//      kernels in Fig. 6;
//   2. arguments are marshalled into a TCDM argument block;
//   3. the host rings the mailbox doorbell and sleeps (WFI);
//   4. the event unit dispatches the 8 PMCA cores at the kernel entry;
//   5. the last core's exit posts the mailbox back and wakes the host.
//
// All steps are timed against the same memory models the rest of the
// simulator uses, so offload overhead scales with code size and memory
// system exactly as in the paper.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "core/soc.hpp"
#include "runtime/hulk_malloc.hpp"
#include "trace/trace.hpp"

namespace hulkv::runtime {

/// What register_kernel does with the static-analysis report.
enum class AnalysisMode {
  kOff,     // skip analysis entirely
  kWarn,    // log diagnostics, always accept the image
  kReject,  // log diagnostics, refuse images with errors (default)
};

/// Handle to a registered PMCA kernel.
struct KernelHandle {
  u32 index = ~0u;
  bool valid() const { return index != ~0u; }
};

class OffloadRuntime {
 public:
  explicit OffloadRuntime(core::HulkVSoc* soc);

  /// Register a kernel image (encoded PMCA instructions). The image is
  /// statically analyzed (see src/analysis/) — under AnalysisMode::kReject
  /// an image with error-severity diagnostics throws SimError — then
  /// placed in external memory; it is copied to L2SPM lazily at first
  /// offload. `symbols` is the optional (label, byte offset) table from
  /// the assembler; when present, the cycle profiler resolves cluster
  /// PCs inside the image to these labels.
  KernelHandle register_kernel(
      const std::string& name, const std::vector<u32>& words,
      std::vector<std::pair<std::string, u64>> symbols = {});

  /// Configure the load-time static analyzer.
  void set_analysis_mode(AnalysisMode mode) { analysis_mode_ = mode; }
  AnalysisMode analysis_mode() const { return analysis_mode_; }
  void set_analysis_policy(const analysis::Policy& policy) {
    analysis_policy_ = policy;
  }

  /// The static-analysis report of `words` under the runtime's kernel
  /// calling convention (a0 = argument block, sp in the per-core TCDM
  /// stack window), the SoC's IOPMP grants and TCDM size.
  analysis::Report analyze_kernel_program(
      const std::vector<u32>& words) const;

  /// Timing breakdown of one offload.
  struct OffloadResult {
    Cycles total = 0;      // host-visible wall time of the offload
    Cycles code_load = 0;  // lazy code copy (0 when already resident)
    Cycles kernel = 0;     // cluster execution (dispatch to last exit)
    Cycles handshake = 0;  // mailbox + argument marshalling
    u64 cluster_instret = 0;
  };

  /// Offload `kernel` with `args` (32-bit words, placed in the TCDM
  /// argument block; by convention a0 of every core points at it).
  /// `team_size` = 0 dispatches the full cluster; a smaller team models
  /// an OpenMP num_threads() clause. Advances the host core's clock
  /// across the whole offload.
  OffloadResult offload(KernelHandle kernel, std::span<const u32> args,
                        u32 team_size = 0);

  /// Force a kernel image resident (pre-loading; disables the lazy cost).
  void preload(KernelHandle kernel);

  /// hulk_malloc(): allocate a shared buffer in the 32-bit-addressable
  /// external-memory region.
  Addr hulk_malloc(u64 bytes) { return shared_.hulk_malloc(bytes); }
  SharedRegion& shared_region() { return shared_; }

  /// TCDM scratch arena available to kernels (after the argument block).
  Arena& tcdm_arena() { return tcdm_arena_; }
  /// L2 scratch arena (kernel images + staging buffers).
  Arena& l2_arena() { return l2_arena_; }

  /// Offset of the argument block inside the TCDM.
  static constexpr Addr kArgBlockBase = mem::map::kTcdmBase;
  static constexpr u64 kArgBlockBytes = 256;

  /// Install host syscall bridging: a guest program running on CVA6 can
  /// invoke offloads via `ecall` with a7 = kSyscallOffload
  /// (a0 = kernel index, a1 = pointer to u32 arg array, a2 = nargs).
  void install_host_syscalls();
  static constexpr u64 kSyscallOffload = 0x1000;

  const std::vector<std::string>& kernel_names() const { return names_; }

 private:
  struct Image {
    std::string name;
    Addr dram_addr = 0;   // backing copy in external memory
    Addr l2_addr = 0;     // resident copy (0 = not loaded)
    u32 bytes = 0;
    // Profiler symbol table (host-side metadata, like the analysis mode).
    std::vector<std::pair<std::string, u64>> symbols;
  };

  Cycles load_code(Image& image);

  core::HulkVSoc* soc_;
  AnalysisMode analysis_mode_ = AnalysisMode::kReject;
  analysis::Policy analysis_policy_ = analysis::Policy::standard();
  SharedRegion shared_;
  Arena l2_arena_;
  Arena tcdm_arena_;
  std::vector<Image> images_;
  std::vector<std::string> names_;
  trace::TrackHandle trace_track_;  // "offload" runtime-phase lane
};

}  // namespace hulkv::runtime
