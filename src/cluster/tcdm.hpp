// Cluster L1 scratchpad (TCDM): 16 x 8 kB single-ported SRAM banks,
// word-interleaved, shared by the 8 PMCA cores and the cluster DMA
// (paper section III-C). A core reaches a free bank in one cycle; two
// requests to the same bank in the same cycle serialise (logarithmic
// interconnect with round-robin arbitration). The model keeps a
// next-free-cycle reservation per bank, which reproduces contention
// without cycle-by-cycle lockstep simulation (DESIGN.md section 4).
#pragma once

#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/timing.hpp"
#include "trace/trace.hpp"

namespace hulkv::cluster {

struct TcdmConfig {
  u32 num_banks = 16;
  u32 bank_bytes = 8 * 1024;
  u32 word_bytes = 4;  // interleaving granularity

  u32 total_bytes() const { return num_banks * bank_bytes; }
};

class Tcdm {
 public:
  explicit Tcdm(const TcdmConfig& config);

  /// Model one core-side access of `bytes` at TCDM-relative `offset`,
  /// issued at `now`. Returns the completion cycle (>= now + 1). A
  /// one-word access to a free bank resolves here, inline in the
  /// caller; a bank conflict and an access that straddles two words go
  /// out of line (tcdm.cpp). Forced inline into the PMCA load and store
  /// handlers, like CacheModel::access into the host's.
  [[gnu::always_inline]] Cycles access(Cycles now, Addr offset, u32 bytes) {
    HULKV_CHECK(offset + bytes <= storage_.size(),
                "TCDM access out of range");
    ctr_accesses_ += 1;
    if (trace::enabled()) trace_access(now);
    Cycles& bank_free = bank_free_[bank_of(offset)];
    // Out of line when the last byte lies in another word, or the bank
    // is still serving an earlier request.
    if (((offset ^ (offset + bytes - 1)) >> word_shift_) != 0 ||
        bank_free > now) {
      return access_words(now, offset, bytes);
    }
    bank_free = now + 1;
    return now + 1;
  }

  /// Functional storage (also exposed to the SoC bus for host access).
  std::vector<u8>& storage() { return storage_; }
  const std::vector<u8>& storage() const { return storage_; }

  const TcdmConfig& config() const { return config_; }
  const StatGroup& stats() const { return stats_; }

  /// Snapshot traversal: contents, bank reservations, stats. The
  /// storage vector never reallocates (cores cache its data pointer).
  void serialize(snapshot::Archive& ar);

  /// Bank index holding `offset`.
  u32 bank_of(Addr offset) const {
    return static_cast<u32>((offset >> word_shift_) & bank_mask_);
  }

 private:
  /// Out of line: the bank reservation of every word `bytes` at
  /// `offset` touches, with conflicts counted, traced and profiled.
  Cycles access_words(Cycles now, Addr offset, u32 bytes);
  void trace_access(Cycles now);

  TcdmConfig config_;
  // Both geometry fields are powers of two (checked at construction),
  // so the access path indexes banks with a shift and a mask.
  u32 word_shift_;
  u32 bank_mask_;
  std::vector<u8> storage_;
  std::vector<Cycles> bank_free_;  // next cycle each bank can serve
  StatGroup stats_;
  // Interned counter slots (hot path: every core load/store lands here).
  u64& ctr_accesses_;
  u64& ctr_conflicts_;
  trace::TrackHandle trace_track_;
  u32 pending_accesses_ = 0;
};

}  // namespace hulkv::cluster
