// Shared-memory allocation (paper section IV).
//
// "CVA6's MMU supports SV39 virtual memory paging, while the PMCA can
// only generate 32-bit addresses. A special main memory shared region,
// accessible through the user-space hulk_malloc() function, enables data
// sharing in this mixed-address space. The function allocates contiguous
// memory buffers within accessible memory space, making pointer sharing
// between the subsystems straightforward."
//
// In HULK-V's physical map the external memory window starts at
// 0x8000_0000, so the whole 512 MB of HyperRAM is reachable with 32-bit
// pointers — hulk_malloc hands out physically contiguous buffers there.
// The same Arena type manages kernel scratch in the L2SPM and TCDM.
#pragma once

#include "common/types.hpp"
#include "snapshot/archive.hpp"

namespace hulkv::runtime {

/// Contiguous bump allocator over one address window.
class Arena {
 public:
  Arena(Addr base, u64 size) : base_(base), size_(size), cursor_(base) {
    HULKV_CHECK(size > 0, "empty arena");
  }

  /// Allocate `bytes` aligned to `align` (power of two).
  /// Throws SimError when the region is exhausted.
  Addr alloc(u64 bytes, u64 align = 8);

  /// Release everything (arena allocation is per-phase, not per-object).
  void reset() { cursor_ = base_; }

  Addr base() const { return base_; }
  u64 size() const { return size_; }
  u64 used() const { return cursor_ - base_; }
  u64 available() const { return size_ - used(); }

  /// Snapshot traversal (base/size are construction-time; only the
  /// bump cursor is state).
  void serialize(snapshot::Archive& ar) { ar.pod(cursor_); }

 private:
  Addr base_;
  u64 size_;
  Addr cursor_;
};

/// The hulk_malloc() shared region: a singleton-per-SoC arena over the
/// 32-bit-addressable external memory window. Owned by OffloadRuntime;
/// exposed here for direct use in tests and examples.
class SharedRegion {
 public:
  SharedRegion(Addr dram_base, u64 dram_size)
      : arena_(dram_base, dram_size) {}

  /// User-space hulk_malloc(): contiguous, 64-byte aligned (cache line).
  Addr hulk_malloc(u64 bytes) { return arena_.alloc(bytes, 64); }

  Arena& arena() { return arena_; }

  /// Snapshot traversal.
  void serialize(snapshot::Archive& ar) { arena_.serialize(ar); }

 private:
  Arena arena_;
};

}  // namespace hulkv::runtime
