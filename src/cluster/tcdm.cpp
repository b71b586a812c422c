#include "cluster/tcdm.hpp"

#include <algorithm>

#include "common/bitutil.hpp"
#include "profile/attr.hpp"

namespace hulkv::cluster {

namespace {
/// TCDM accesses are batched in the trace (one counter event per batch);
/// conflicts are rare enough to record individually.
constexpr u32 kAccessBatchSize = 256;
}  // namespace

Tcdm::Tcdm(const TcdmConfig& config)
    : config_(config),
      word_shift_(log2_exact(config.word_bytes)),
      bank_mask_(config.num_banks - 1),
      storage_(config.total_bytes(), 0),
      bank_free_(config.num_banks, 0),
      stats_("tcdm"),
      ctr_accesses_(stats_.counter("accesses")),
      ctr_conflicts_(stats_.counter("conflicts")) {
  HULKV_CHECK(is_pow2(config.num_banks),
              "TCDM bank count must be a power of two");
  HULKV_CHECK(is_pow2(config.word_bytes),
              "TCDM word size must be a power of two");
}

void Tcdm::trace_access(Cycles now) {
  if (++pending_accesses_ < kAccessBatchSize) return;
  auto& sink = trace::sink();
  sink.counter(sink.resolve(trace_track_, stats_.name()),
               trace::Ev::kAccessBatch, now, pending_accesses_);
  pending_accesses_ = 0;
}

Cycles Tcdm::access(Cycles now, Addr offset, u32 bytes) {
  HULKV_CHECK(offset + bytes <= storage_.size(), "TCDM access out of range");
  ctr_accesses_ += 1;
  if (trace::enabled()) trace_access(now);

  // A scalar access touches one bank; a wide (DMA) access touches
  // ceil(bytes/word) consecutive banks, one word per bank per cycle.
  // Iterate the word-aligned span so an unaligned access that straddles
  // two words pays both banks (RI5CY splits such accesses in two).
  Cycles done = now;
  const Addr first = offset & ~static_cast<Addr>(config_.word_bytes - 1);
  for (Addr a = first; a < offset + bytes; a += config_.word_bytes) {
    const u32 bank = bank_of(a);
    const Cycles start = std::max(now, bank_free_[bank]);
    if (start > now) {
      ctr_conflicts_ += 1;
      if (trace::enabled()) {
        auto& sink = trace::sink();
        sink.instant(sink.resolve(trace_track_, stats_.name()),
                     trace::Ev::kConflict, now, bank, start - now);
      }
    }
    bank_free_[bank] = start + 1;
    done = std::max(done, start + 1);
  }
  // done == now + 1 is the conflict-free single-cycle access; anything
  // beyond that is bank serialization, which the issuing core waits out
  // (it folds this completion time into its clock with a max()).
  profile::add(profile::Reason::kTcdmConflict, done - now - 1);
  return done;
}

void Tcdm::serialize(snapshot::Archive& ar) {
  ar.bytes(storage_.data(), storage_.size());
  ar.pod_vec(bank_free_);
  ar.expect_size(bank_free_.size(), config_.num_banks, "tcdm bank table");
  stats_.serialize(ar);
  ar.pod(pending_accesses_);
}

void Tcdm::reset() {
  std::fill(storage_.begin(), storage_.end(), 0);
  std::fill(bank_free_.begin(), bank_free_.end(), 0);
  stats_.reset();
  pending_accesses_ = 0;
}

}  // namespace hulkv::cluster
