// Differential tests of the set-associative timing models: SetAssocTags,
// CacheModel and Llc are driven with seeded access streams next to a
// true-LRU reference written here from the models' documented behaviour
// (a recency list per set, no shifts). Every returned hit, victim and
// completion cycle, every counter, and the log of requests each model
// sends downstream must match, across a flush() and a snapshot restore
// mid-stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "mem/cache.hpp"
#include "mem/llc.hpp"

namespace hulkv::mem {
namespace {

// ---------------------------------------------------------------------
// Downstream: a logging MemTiming with address-dependent latency.
// ---------------------------------------------------------------------

struct Request {
  Cycles now;
  Addr addr;
  u32 bytes;
  bool is_write;
  bool operator==(const Request&) const = default;
};

class LoggingMemory final : public MemTiming {
 public:
  Cycles access(Cycles now, Addr addr, u32 bytes, bool is_write) override {
    log.push_back({now, addr, bytes, is_write});
    return now + 7 + (addr >> 4) % 5 + bytes / 8 + (is_write ? 1 : 0);
  }
  std::vector<Request> log;
};

// ---------------------------------------------------------------------
// Reference tags: per set, lines from most to least recently used.
// ---------------------------------------------------------------------

class RefTags {
 public:
  struct Line {
    u64 number;  // address / line_bytes
    bool dirty;
  };

  RefTags(u32 num_sets, u32 num_ways, u32 line_bytes)
      : ways_(num_ways), line_bytes_(line_bytes), sets_(num_sets) {}

  /// Hit: move the line to the front. Returns it, or nullptr.
  Line* lookup(Addr addr) {
    std::list<Line>& set = set_of(addr);
    const u64 number = addr / line_bytes_;
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (it->number == number) {
        set.splice(set.begin(), set, it);
        return &set.front();
      }
    }
    return nullptr;
  }

  bool probe(Addr addr) const {
    const std::list<Line>& set = sets_[(addr / line_bytes_) % sets_.size()];
    return std::any_of(set.begin(), set.end(), [&](const Line& l) {
      return l.number == addr / line_bytes_;
    });
  }

  /// Install at the front; a full set evicts its least recent line.
  SetAssocTags::Victim fill(Addr addr) {
    std::list<Line>& set = set_of(addr);
    SetAssocTags::Victim victim;
    if (set.size() == ways_) {
      victim.valid = true;
      victim.dirty = set.back().dirty;
      victim.line_addr = set.back().number * line_bytes_;
      set.pop_back();
    }
    set.push_front({addr / line_bytes_, false});
    return victim;
  }

  void flush() {
    for (std::list<Line>& set : sets_) set.clear();
  }

  u32 line_bytes() const { return line_bytes_; }

 private:
  std::list<Line>& set_of(Addr addr) {
    return sets_[(addr / line_bytes_) % sets_.size()];
  }

  u32 ways_;
  u32 line_bytes_;
  std::vector<std::list<Line>> sets_;
};

// ---------------------------------------------------------------------
// Reference cache and LLC, written from cache.hpp and llc.hpp.
// ---------------------------------------------------------------------

struct CacheCounts {
  u64 reads = 0, writes = 0, hits = 0, misses = 0, writebacks = 0,
      wt_words = 0;
};

class RefCache {
 public:
  RefCache(const CacheConfig& config, MemTiming* next)
      : config_(config),
        next_(next),
        tags_(config.size_bytes / config.line_bytes / config.ways,
              config.ways, config.line_bytes) {}

  Cycles access(Cycles now, Addr addr, u32 bytes, bool is_write) {
    const u32 line = config_.line_bytes;
    Cycles done = now;
    for (Addr a = addr / line * line; a <= (addr + bytes - 1) / line * line;
         a += line) {
      done = access_line(done, a, is_write);
    }
    return done;
  }

  void flush() { tags_.flush(); }
  bool probe(Addr addr) const { return tags_.probe(addr); }
  const CacheCounts& counts() const { return counts_; }

 private:
  Cycles access_line(Cycles now, Addr line_addr, bool is_write) {
    (is_write ? counts_.writes : counts_.reads) += 1;
    if (RefTags::Line* hit = tags_.lookup(line_addr)) {
      counts_.hits += 1;
      if (is_write) write_word(now, line_addr, hit);
      return now + config_.hit_latency;
    }
    counts_.misses += 1;
    if (is_write && !config_.write_allocate) {
      next_->access(now, line_addr, 8, true);  // posted: latency hidden
      counts_.wt_words += 1;
      return now + config_.hit_latency;
    }
    const SetAssocTags::Victim victim = tags_.fill(line_addr);
    Cycles t = now + config_.hit_latency;
    if (victim.valid && victim.dirty) {
      counts_.writebacks += 1;
      t = next_->access(t, victim.line_addr, config_.line_bytes, true);
    }
    t = next_->access(t, line_addr, config_.line_bytes, false);
    t += config_.fill_penalty;
    if (is_write) write_word(t, line_addr, tags_.lookup(line_addr));
    return t;
  }

  // A write to a resident line: forwarded (write-through) or dirtied.
  void write_word(Cycles at, Addr line_addr, RefTags::Line* line) {
    if (config_.write_through) {
      next_->access(at, line_addr, 8, true);
      counts_.wt_words += 1;
    } else {
      line->dirty = true;
    }
  }

  CacheConfig config_;
  MemTiming* next_;
  RefTags tags_;
  CacheCounts counts_;
};

struct LlcCounts {
  u64 bypass = 0, reads = 0, writes = 0, hits = 0, misses = 0,
      evictions = 0;
};

class RefLlc {
 public:
  RefLlc(const LlcConfig& config, MemTiming* ext)
      : config_(config),
        ext_(ext),
        tags_(config.num_lines, config.num_ways, config.line_bytes()) {}

  Cycles access(Cycles now, Addr addr, u32 bytes, bool is_write) {
    if (addr < config_.cacheable_base ||
        addr >= config_.cacheable_base + config_.cacheable_size) {
      counts_.bypass += 1;
      return ext_->access(now, addr, bytes, is_write);
    }
    const u32 line = config_.line_bytes();
    Cycles done = now;
    for (Addr a = addr / line * line; a <= (addr + bytes - 1) / line * line;
         a += line) {
      done = access_line(done, a, is_write);
    }
    return done;
  }

  const LlcCounts& counts() const { return counts_; }

 private:
  Cycles access_line(Cycles now, Addr line_addr, bool is_write) {
    (is_write ? counts_.writes : counts_.reads) += 1;
    Cycles t = now + config_.tag_latency;
    if (RefTags::Line* hit = tags_.lookup(line_addr)) {
      counts_.hits += 1;
      if (is_write) hit->dirty = true;
      return t + config_.hit_latency;
    }
    counts_.misses += 1;
    const SetAssocTags::Victim victim = tags_.fill(line_addr);
    if (victim.valid && victim.dirty) {
      counts_.evictions += 1;
      t = ext_->access(t, victim.line_addr, config_.line_bytes(), true);
    }
    t = ext_->access(t, line_addr, config_.line_bytes(), false);
    if (is_write) tags_.lookup(line_addr)->dirty = true;
    return t + config_.hit_latency;
  }

  LlcConfig config_;
  MemTiming* ext_;
  RefTags tags_;
  LlcCounts counts_;
};

// ---------------------------------------------------------------------
// Access streams.
// ---------------------------------------------------------------------

/// Addresses over `span` bytes from `base`: mostly the previous line or
/// the one before it (the host kernels' locality), else anywhere.
class Stream {
 public:
  Stream(u64 seed, Addr base, u64 span, u32 line_bytes)
      : rng_(seed), base_(base), span_(span), line_(line_bytes) {}

  struct Access {
    Addr addr;
    u32 bytes;
    bool is_write;
  };

  /// `straddle`: some accesses are unaligned and may cross lines.
  Access next(bool straddle) {
    const u64 pick = rng_.next_below(10);
    Addr line_addr;
    if (pick < 3) {
      line_addr = last_[0];
    } else if (pick < 6) {
      line_addr = last_[1];
    } else {
      line_addr = base_ + rng_.next_below(span_) / line_ * line_;
    }
    last_[1] = last_[0];
    last_[0] = line_addr;
    Access a;
    a.is_write = rng_.next_below(3) == 0;
    if (straddle && rng_.next_below(5) == 0) {
      a.bytes = 1 + static_cast<u32>(rng_.next_below(2 * line_));
      a.addr = line_addr + rng_.next_below(line_);
    } else {
      a.bytes = 1u << rng_.next_below(4);  // 1, 2, 4 or 8
      a.addr = line_addr + rng_.next_below(line_ / a.bytes) * a.bytes;
    }
    return a;
  }

  Cycles gap() { return rng_.next_below(4); }

 private:
  Xoshiro256 rng_;
  Addr base_;
  u64 span_;
  u32 line_;
  Addr last_[2] = {};
};

std::vector<u8> save(CacheModel& cache) {
  std::vector<u8> bytes;
  snapshot::Archive ar = snapshot::Archive::saver(&bytes);
  cache.serialize(ar);
  return bytes;
}

void load(CacheModel& cache, const std::vector<u8>& bytes) {
  snapshot::Archive ar = snapshot::Archive::loader(bytes.data(), bytes.size());
  cache.serialize(ar);
}

// ---------------------------------------------------------------------
// SetAssocTags against RefTags.
// ---------------------------------------------------------------------

struct TagGeometry {
  u32 sets;
  u32 ways;
  u32 line;
};

class TagsDiff : public ::testing::TestWithParam<TagGeometry> {};

TEST_P(TagsDiff, LookupFillAndDirtyMatchTrueLru) {
  const TagGeometry g = GetParam();
  SetAssocTags tags(g.sets, g.ways, g.line);
  RefTags ref(g.sets, g.ways, g.line);
  // Three times the capacity: hits, misses and evictions of every kind.
  Stream stream(g.sets * 131 + g.ways, 0x4000,
                3ull * g.sets * g.ways * g.line, g.line);
  for (int i = 0; i < 20000; ++i) {
    const Stream::Access a = stream.next(/*straddle=*/false);
    SCOPED_TRACE("access " + std::to_string(i));
    if (i == 9000) {
      tags.flush();
      ref.flush();
    }
    SetAssocTags::Way* way = tags.lookup(a.addr);
    RefTags::Line* line = ref.lookup(a.addr);
    ASSERT_EQ(way != nullptr, line != nullptr);
    if (way == nullptr) {
      const SetAssocTags::Victim got = tags.fill(a.addr);
      const SetAssocTags::Victim want = ref.fill(a.addr);
      ASSERT_EQ(got.valid, want.valid);
      ASSERT_EQ(got.dirty, want.dirty);
      ASSERT_EQ(got.line_addr, want.line_addr);
      if (a.is_write) {
        tags.mark_dirty(a.addr);
        ref.lookup(a.addr)->dirty = true;
      }
    } else if (a.is_write) {
      way->dirty = true;
      line->dirty = true;
    }
    const Addr other = 0x4000 + (a.addr * 7919) % (3ull * g.sets * g.ways *
                                                   g.line);
    ASSERT_EQ(tags.probe(other), ref.probe(other));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TagsDiff,
    ::testing::Values(TagGeometry{16, 1, 32}, TagGeometry{8, 2, 64},
                      TagGeometry{4, 4, 16}, TagGeometry{4, 8, 64},
                      TagGeometry{2, 16, 32}, TagGeometry{1, 16, 64}),
    [](const ::testing::TestParamInfo<TagGeometry>& geometry) {
      return std::to_string(geometry.param.sets) + "x" +
             std::to_string(geometry.param.ways) + "x" +
             std::to_string(geometry.param.line);
    });

// ---------------------------------------------------------------------
// CacheModel against RefCache.
// ---------------------------------------------------------------------

struct CacheCase {
  const char* name;
  u32 size_bytes;
  u32 ways;
  u32 line;
  bool write_through;
  bool write_allocate;
  Cycles hit_latency;
  Cycles fill_penalty;
};

// gtest puts the printed parameter into each listed test name. As raw
// bytes a CacheCase shows its name pointer and padding, which change from
// run to run, so print the name alone.
void PrintTo(const CacheCase& c, std::ostream* os) { *os << c.name; }

class CacheDiff : public ::testing::TestWithParam<CacheCase> {};

TEST_P(CacheDiff, CyclesCountersAndDownstreamMatch) {
  const CacheCase c = GetParam();
  const CacheConfig cfg{.name = c.name,
                        .size_bytes = c.size_bytes,
                        .line_bytes = c.line,
                        .ways = c.ways,
                        .write_through = c.write_through,
                        .write_allocate = c.write_allocate,
                        .hit_latency = c.hit_latency,
                        .fill_penalty = c.fill_penalty};
  LoggingMemory next, ref_next;
  CacheModel cache(cfg, &next);
  RefCache ref(cfg, &ref_next);
  Stream stream(c.size_bytes + c.ways, 0x8000'0000ull, 3ull * c.size_bytes,
                c.line);
  std::vector<u8> saved;
  RefCache ref_saved = ref;
  size_t checked = 0;  // downstream requests compared so far
  Cycles now = 0;
  for (int i = 0; i < 30000; ++i) {
    SCOPED_TRACE("access " + std::to_string(i));
    // Mid-stream: flush, save, run on, then restore the saved state
    // into the same model.
    if (i == 8000) {
      cache.flush();
      ref.flush();
    } else if (i == 15000) {
      saved = save(cache);
      ref_saved = ref;
    } else if (i == 20000) {
      load(cache, saved);
      ref = ref_saved;
    }
    const Stream::Access a = stream.next(/*straddle=*/true);
    const Cycles got = cache.access(now, a.addr, a.bytes, a.is_write);
    const Cycles want = ref.access(now, a.addr, a.bytes, a.is_write);
    ASSERT_EQ(got, want) << "addr 0x" << std::hex << a.addr << std::dec
                         << " bytes " << a.bytes << " write " << a.is_write;
    ASSERT_EQ(next.log.size(), ref_next.log.size());
    ASSERT_TRUE(std::equal(next.log.begin() + checked, next.log.end(),
                           ref_next.log.begin() + checked));
    checked = next.log.size();
    ASSERT_EQ(cache.probe(a.addr), ref.probe(a.addr));
    now = got + stream.gap();
  }
  const StatGroup& s = cache.stats();
  const CacheCounts& r = ref.counts();
  EXPECT_EQ(s.get("reads"), r.reads);
  EXPECT_EQ(s.get("writes"), r.writes);
  EXPECT_EQ(s.get("hits"), r.hits);
  EXPECT_EQ(s.get("misses"), r.misses);
  EXPECT_EQ(s.get("writebacks"), r.writebacks);
  EXPECT_EQ(s.get("writethrough_words"), r.wt_words);
  // The stream must exercise what it claims to.
  EXPECT_GT(r.hits, r.misses / 2);
  EXPECT_GT(r.misses, 1000u);
  if (!c.write_through) {
    EXPECT_GT(r.writebacks, 100u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CacheDiff,
    ::testing::Values(
        // The host L1s: write-through, no write-allocate, 0-cycle hits.
        CacheCase{"l1d", 4096, 8, 64, true, false, 0, 1},
        CacheCase{"l1i", 2048, 4, 64, true, false, 0, 1},
        // Write-back, write-allocate.
        CacheCase{"wb_direct", 1024, 1, 32, false, true, 1, 1},
        CacheCase{"wb_2way", 2048, 2, 64, false, true, 1, 0},
        CacheCase{"wb_16way", 4096, 16, 16, false, true, 2, 3},
        // The cluster I-cache's direct-mapped private level.
        CacheCase{"private_l1i", 512, 1, 32, true, false, 0, 0}),
    [](const ::testing::TestParamInfo<CacheCase>& config) {
      return std::string(config.param.name);
    });

// ---------------------------------------------------------------------
// Llc against RefLlc, with traffic outside the cacheable window.
// ---------------------------------------------------------------------

TEST(LlcDiff, CyclesCountersBypassAndDownstreamMatch) {
  LlcConfig cfg;
  cfg.num_lines = 16;  // 8 ways x 16 sets x 64 B = 8 kB
  cfg.cacheable_base = 0x8000'0000ull;
  cfg.cacheable_size = 64 * 1024;
  LoggingMemory ext, ref_ext;
  Llc llc(cfg, &ext);
  RefLlc ref(cfg, &ref_ext);
  // The span starts below the window and ends past it: both edges bypass.
  const u64 span = cfg.cacheable_size / 2;
  Stream cached(7, cfg.cacheable_base, span, cfg.line_bytes());
  Stream edges(8, cfg.cacheable_base - 4096, span, cfg.line_bytes());
  Stream top(9, cfg.cacheable_base + cfg.cacheable_size - 4096, 8192,
             cfg.line_bytes());
  Xoshiro256 pick(10);
  size_t checked = 0;  // downstream requests compared so far
  Cycles now = 0;
  for (int i = 0; i < 30000; ++i) {
    SCOPED_TRACE("access " + std::to_string(i));
    const u64 which = pick.next_below(10);
    Stream& s = which < 8 ? cached : (which == 8 ? edges : top);
    const Stream::Access a = s.next(/*straddle=*/true);
    const Cycles got = llc.access(now, a.addr, a.bytes, a.is_write);
    const Cycles want = ref.access(now, a.addr, a.bytes, a.is_write);
    ASSERT_EQ(got, want) << "addr 0x" << std::hex << a.addr;
    ASSERT_EQ(ext.log.size(), ref_ext.log.size());
    ASSERT_TRUE(std::equal(ext.log.begin() + checked, ext.log.end(),
                           ref_ext.log.begin() + checked));
    checked = ext.log.size();
    now = got + s.gap();
  }
  const StatGroup& s = llc.stats();
  const LlcCounts& r = ref.counts();
  EXPECT_EQ(s.get("bypass"), r.bypass);
  EXPECT_EQ(s.get("reads"), r.reads);
  EXPECT_EQ(s.get("writes"), r.writes);
  EXPECT_EQ(s.get("hits"), r.hits);
  EXPECT_EQ(s.get("misses"), r.misses);
  EXPECT_EQ(s.get("evictions"), r.evictions);
  EXPECT_GT(r.bypass, 1000u);
  EXPECT_GT(r.evictions, 100u);
  EXPECT_GT(r.hits, 1000u);
}

}  // namespace
}  // namespace hulkv::mem
