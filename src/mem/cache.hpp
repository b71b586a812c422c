// Set-associative cache timing models.
//
// `SetAssocTags` is the tag/LRU state machine shared by the CVA6 L1
// caches, the cluster instruction caches and the Last-Level Cache.
// `CacheModel` is a complete timing-only cache in front of a next-level
// MemTiming: it models CVA6's 16 kB L1I and 32 kB write-through L1D
// (paper section III). Caches are timing-only — data lives in the
// functional backing stores — so they never hold stale values by
// construction (DESIGN.md section 4).
#pragma once

#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/timing.hpp"
#include "profile/attr.hpp"
#include "trace/trace.hpp"

namespace hulkv::mem {

/// Tag array + true-LRU state for one set-associative structure.
class SetAssocTags {
 public:
  struct Victim {
    bool valid = false;  // an existing line was evicted
    bool dirty = false;  // ...and it was dirty (needs write-back)
    Addr line_addr = 0;  // base address of the evicted line
  };

  struct Way {
    u64 tag = 0;
    u64 lru = 0;  // larger = more recently used
    bool valid = false;
    bool dirty = false;
  };

  SetAssocTags(u32 num_sets, u32 num_ways, u32 line_bytes);

  /// The way holding `addr`'s line, with its LRU stamp refreshed, or
  /// nullptr on a miss. A write hit marks the line dirty through it.
  Way* lookup(Addr addr) {
    Way* const way = find(addr);
    if (way != nullptr) way->lru = ++use_clock_;
    return way;
  }

  /// Present without touching LRU (for tests/inspection).
  bool probe(Addr addr) const { return find(addr) != nullptr; }

  /// Install `addr`'s line, evicting LRU if the set is full.
  Victim fill(Addr addr);

  /// Mark `addr`'s line dirty (must be present).
  void mark_dirty(Addr addr);

  /// Invalidate everything.
  void flush();

  /// Snapshot traversal: use clock + per-way tag/LRU/valid/dirty.
  void serialize(snapshot::Archive& ar);

  u32 num_sets() const { return num_sets_; }
  u32 num_ways() const { return num_ways_; }
  u32 line_bytes() const { return line_bytes_; }

  /// Base address of the line containing `addr`.
  Addr line_of(Addr addr) const { return addr & ~static_cast<Addr>(line_bytes_ - 1); }

 private:
  u32 set_index(Addr addr) const {
    return static_cast<u32>((addr >> line_shift_) & (num_sets_ - 1));
  }
  u64 tag_of(Addr addr) const { return addr >> tag_shift_; }
  Way* find(Addr addr) {
    const u64 tag = tag_of(addr);
    Way* const base = &ways_[static_cast<size_t>(set_index(addr)) * num_ways_];
    for (u32 w = 0; w < num_ways_; ++w) {
      if (base[w].valid && base[w].tag == tag) return &base[w];
    }
    return nullptr;
  }
  const Way* find(Addr addr) const {
    return const_cast<SetAssocTags*>(this)->find(addr);
  }

  u32 num_sets_;
  u32 num_ways_;
  u32 line_bytes_;
  // Sets and lines are powers of two (checked at construction), so the
  // set index and the tag are shifts and a mask, not divisions. Bytes,
  // so they sit in the padding before use_clock_: the CVA6 core embeds
  // its L1 models, and growing them shifts its hot members.
  u8 line_shift_;
  u8 tag_shift_;  // line_shift_ + log2(num_sets_)
  u64 use_clock_ = 0;
  std::vector<Way> ways_;  // num_sets * num_ways
};

/// Configuration for a CacheModel.
struct CacheConfig {
  std::string name = "cache";
  u32 size_bytes = 32 * 1024;
  u32 line_bytes = 64;
  u32 ways = 8;
  bool write_through = true;   // CVA6 L1D is write-through
  bool write_allocate = false; // no-allocate on write miss (write-through)
  /// Stall reason this cache's own share of a miss is attributed to
  /// when the cycle profiler is collecting (DESIGN.md section 12).
  /// Lives in the padding after the bools: CacheConfig is embedded in
  /// the cores, and growing it shifts their hot members (measurably).
  profile::Reason profile_reason = profile::Reason::kOther;
  Cycles hit_latency = 1;      // cycles for a hit
  Cycles fill_penalty = 1;     // extra cycles to install a refilled line
};

/// Timing-only set-associative cache in front of `next`.
class CacheModel final : public MemTiming {
 public:
  CacheModel(const CacheConfig& config, MemTiming* next);

  /// Model an access; splits requests that straddle line boundaries.
  /// A one-line hit resolves here, inline in the caller; misses and
  /// straddling accesses go out of line (cache.cpp). Forced inline:
  /// left to itself, the compiler calls an out-of-line copy from the
  /// host's load and store handlers.
  [[gnu::always_inline]] Cycles access(Cycles now, Addr addr, u32 bytes,
                                       bool is_write) override {
    const Addr line = tags_.line_of(addr);
    if (line != tags_.line_of(addr + bytes - 1)) {
      return access_lines(now, addr, bytes, is_write);
    }
    return access_line(now, line, is_write);
  }

  void flush() { tags_.flush(); }

  /// Snapshot traversal.
  void serialize(snapshot::Archive& ar);

  /// True when `addr`'s line is resident. Pure peek: no LRU update, no
  /// counters — lets schedulers prove an access would be a local hit.
  bool probe(Addr addr) const { return tags_.probe(addr); }

  const StatGroup& stats() const { return stats_; }
  StatGroup& stats() { return stats_; }
  const CacheConfig& config() const { return config_; }

  /// Hit ratio over all accesses so far (0 if no accesses).
  double hit_ratio() const;

 private:
  [[gnu::always_inline]] Cycles access_line(Cycles now, Addr line_addr,
                                            bool is_write) {
    (is_write ? ctr_writes_ : ctr_reads_) += 1;
    SetAssocTags::Way* const way = tags_.lookup(line_addr);
    if (way == nullptr) return miss(now, line_addr, is_write);
    ctr_hits_ += 1;
    if (trace::enabled()) trace_hit(now);
    if (is_write) {
      if (config_.write_through) {
        // Forward the word to the next level; the store buffer absorbs
        // the latency so the core sees only the hit latency, but the
        // next level's occupancy advances (bandwidth is consumed). The
        // core never waits for it, so the profiler must not claim it.
        const profile::SuppressGuard mute;
        next_->access(now, line_addr, 8, /*is_write=*/true);
        ctr_wt_words_ += 1;
      } else {
        mark_dirty(*way);
      }
    }
    return now + config_.hit_latency;
  }
  /// Out of line: accesses that straddle lines, misses, the write-back
  /// dirty bit (no host L1 writes back) and the hit-batch trace event.
  Cycles access_lines(Cycles now, Addr addr, u32 bytes, bool is_write);
  Cycles miss(Cycles now, Addr line_addr, bool is_write);
  static void mark_dirty(SetAssocTags::Way& way);
  void trace_hit(Cycles now);

  CacheConfig config_;
  MemTiming* next_;
  SetAssocTags tags_;
  StatGroup stats_;
  // Interned counter slots: resolved once here, bumped per access
  // (satellite fix for the per-event std::map lookup in StatGroup::add).
  u64& ctr_reads_;
  u64& ctr_writes_;
  u64& ctr_hits_;
  u64& ctr_misses_;
  u64& ctr_writebacks_;
  u64& ctr_wt_words_;
  // Tracing: lazily registered swimlane plus the L1-hit batch counter
  // (hits are too frequent for per-event records; see DESIGN.md §9).
  trace::TrackHandle trace_track_;
  u32 pending_hits_ = 0;
};

}  // namespace hulkv::mem
