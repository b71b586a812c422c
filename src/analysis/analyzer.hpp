// Entry point of the guest-program static analyzer.
//
// `analyze` decodes an assembled image, builds its CFG (cfg.hpp) and
// runs a forward abstract-interpretation pass over it on the interval
// domain (domain.hpp): register definedness (use before def, dead
// writes), value-range propagation for materialised and derived
// addresses (with widening at loop back edges), and static memory
// checks of the resulting address ranges against the SoC memory map and
// the IOPMP grant windows. The load paths
// (OffloadRuntime::register_kernel, kernels::run_host_program) call it
// before any instruction executes and reject images whose report
// contains errors under the configured policy.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/diag.hpp"
#include "analysis/domain.hpp"
#include "core/iopmp.hpp"
#include "mem/interconnect.hpp"

namespace hulkv::analysis {

struct Options {
  /// Address the image is analyzed at. Cluster kernels are assembled
  /// position-independent at 0; host programs at their load address.
  Addr base = 0;

  IsaProfile profile = IsaProfile::kClusterRv32;

  /// Position-independent image: the load address is not the analysis
  /// base, so auipc-derived values are treated as unknown instead of
  /// being folded into (bogus) absolute addresses.
  bool pic = true;

  /// When set, statically-known cluster accesses outside the TCDM are
  /// checked against these grant windows (kIopmpDenied).
  const core::Iopmp* iopmp = nullptr;

  /// TCDM size used for the memory-map check (the SoC's configured
  /// cluster may differ from the default map constant).
  u64 tcdm_bytes = mem::map::kTcdmSize;

  /// Bitmask of register slots (x0..x31 = bits 0..31, f0..f31 = bits
  /// 32..63) holding meaningful values at entry. 0 selects the
  /// profile's convention via default_entry_defined().
  u64 entry_defined = 0;

  /// Statically-known entry values of integer registers, from the load
  /// path's calling convention (e.g. the offload runtime always passes
  /// the TCDM argument-block address in a0, and the cluster stacks live
  /// in a fixed TCDM window). Registers not listed start at top.
  std::vector<std::pair<u8, Interval>> entry_values;

  Policy policy = Policy::standard();
};

/// Entry convention: the cluster runtime passes the argument block in
/// a0 and a valid sp; the host loader additionally fills a1..a5.
u64 default_entry_defined(IsaProfile profile);

/// Bitmask helper for Options::entry_defined.
constexpr u64 reg_mask(std::initializer_list<u8> slots) {
  u64 mask = 1;  // x0 is always defined
  for (const u8 slot : slots) mask |= u64{1} << slot;
  return mask;
}

/// Run every pass over the image and return its diagnostic report.
Report analyze(std::span<const u32> words, const Options& options);

}  // namespace hulkv::analysis
