#include "profile/profile.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/log.hpp"
#include "isa/disasm.hpp"
#include "report/report.hpp"
#include "trace/trace.hpp"

namespace hulkv::profile {

namespace detail {
constinit thread_local AttrScratch* g_scratch = nullptr;
bool g_enabled = false;
u32 g_generation = 1;
std::atomic<u64> g_observed_entries{0};
}  // namespace detail

namespace {

/// Pending Perfetto counter cycles per core before a flush.
constexpr u64 kCounterFlushThreshold = 4096;

u64 stall_sum(const InstrStats& s) {
  u64 total = 0;
  for (const u64 v : s.stalls) total += v;
  return total;
}

std::string hex_addr(Addr a) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(a));
  return buf;
}

}  // namespace

const char* reason_name(Reason r) {
  switch (r) {
    case Reason::kHostIcacheMiss: return "host_icache_miss";
    case Reason::kHostDcacheMiss: return "host_dcache_miss";
    case Reason::kHostTlbWalk: return "host_tlb_walk";
    case Reason::kHostWfi: return "host_wfi";
    case Reason::kUncachedBus: return "uncached_bus";
    case Reason::kLlcWait: return "llc_wait";
    case Reason::kExtMemWait: return "ext_mem_wait";
    case Reason::kOffloadWait: return "offload_wait";
    case Reason::kClIcacheMiss: return "cl_icache_miss";
    case Reason::kTcdmConflict: return "tcdm_conflict";
    case Reason::kLsuPark: return "lsu_park";
    case Reason::kDmaWait: return "dma_wait";
    case Reason::kEvuSleep: return "evu_sleep";
    case Reason::kBarrierWait: return "barrier_wait";
    case Reason::kOther: return "other";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// CoreProfile

void CoreProfile::end_instr(const isa::DecodedBlock& block, size_t index,
                            Cycles now) {
  BlockProfile* bp = memo_;
  if (bp == nullptr || bp->start != block.start) {
    bp = &blocks_[block.start];
    bp->start = block.start;
    memo_ = bp;
  }
  if (bp->generation != block.generation || bp->instrs.empty()) {
    // First visit or a re-decode (self-modifying code): refresh the
    // instruction copy; accumulated stats are PC-keyed and survive.
    bp->generation = block.generation;
    bp->instrs = block.instrs;
    if (bp->stats.size() < block.instrs.size()) {
      bp->stats.resize(block.instrs.size());
    }
  }
  if (index >= bp->stats.size()) bp->stats.resize(index + 1);
  InstrStats& s = bp->stats[index];

  const Cycles delta = (now - begin_cycle_) + gap_;
  s.cycles += delta;
  s.count += 1;
  total_cycles_ += delta;

  const bool tracing = trace::enabled();
  if (gap_ != 0) {
    const auto gi = static_cast<size_t>(gap_reason_);
    s.stalls[gi] += gap_;
    reason_totals_[gi] += gap_;
    if (tracing) {
      pending_[gi] += gap_;
      pending_sum_ += gap_;
    }
    gap_ = 0;
  }
  gap_reason_ = Reason::kOther;

  u32 touched = scratch_.touched;
  while (touched != 0) {
    const int i = std::countr_zero(touched);
    touched &= touched - 1;
    const u64 v = scratch_.vals[i];
    scratch_.vals[i] = 0;
    s.stalls[i] += v;
    reason_totals_[i] += v;
    if (tracing) {
      pending_[i] += v;
      pending_sum_ += v;
    }
  }
  scratch_.touched = 0;
  scratch_.claimed = 0;

  has_last_ = true;
  last_cycle_ = now;
  detail::g_scratch = prev_scratch_;
  prev_scratch_ = nullptr;
  if (tracing && pending_sum_ >= kCounterFlushThreshold) {
    flush_trace_counters(now);
  }
}

u64 CoreProfile::total_stalls() const {
  u64 total = 0;
  for (const u64 v : reason_totals_) total += v;
  return total;
}

void CoreProfile::flush_trace_counters(Cycles now) {
  if (pending_sum_ == 0) return;
  auto& sink = trace::sink();
  for (size_t i = 0; i < kNumReasons; ++i) {
    if (pending_[i] == 0) continue;
    const std::string track =
        name_ + ".stall." + reason_name(static_cast<Reason>(i));
    sink.counter(sink.track(track), trace::Ev::kStallCycles, now,
                 pending_[i]);
    pending_[i] = 0;
  }
  pending_sum_ = 0;
}

// ---------------------------------------------------------------------------
// Session

Session& Session::instance() {
  static Session s;
  return s;
}

void Session::enable() {
  enabled_ = true;
  detail::g_enabled = true;
}

void Session::disable() {
  enabled_ = false;
  detail::g_enabled = false;
}

void Session::reset() {
  cores_.clear();
  symbols_.clear();
  ++detail::g_generation;  // invalidates every cached Handle
}

CoreProfile* Session::core(std::string_view name) {
  const auto it = cores_.find(name);
  if (it != cores_.end()) return it->second.get();
  auto created = std::make_unique<CoreProfile>(std::string(name));
  CoreProfile* raw = created.get();
  cores_.emplace(std::string(name), std::move(created));
  return raw;
}

CoreProfile* Session::find_core(std::string_view name) {
  const auto it = cores_.find(name);
  return it == cores_.end() ? nullptr : it->second.get();
}

std::vector<const CoreProfile*> Session::cores() const {
  std::vector<const CoreProfile*> out;
  out.reserve(cores_.size());
  for (const auto& [name, core] : cores_) out.push_back(core.get());
  return out;
}

void Session::register_symbols(
    Addr base, u64 bytes, const std::string& program,
    const std::vector<std::pair<std::string, u64>>& labels) {
  if (!enabled_) return;
  const u64 end = base + bytes;
  // The L2 arena recycles addresses across evict/reload: drop anything
  // overlapping the new image's range before inserting.
  std::erase_if(symbols_, [&](const SymEntry& e) {
    return e.addr < end && e.end > base;
  });
  bool have_entry_label = false;
  for (const auto& [label, offset] : labels) {
    if (offset >= bytes) continue;
    symbols_.push_back(SymEntry{base + offset, end, program, label});
    have_entry_label |= offset == 0;
  }
  if (!have_entry_label) {
    symbols_.push_back(SymEntry{base, end, program, program});
  }
  std::sort(symbols_.begin(), symbols_.end(),
            [](const SymEntry& a, const SymEntry& b) {
              return a.addr != b.addr ? a.addr < b.addr : a.label < b.label;
            });
}

Symbol Session::symbolize(Addr pc) const {
  Symbol sym;
  auto it = std::upper_bound(
      symbols_.begin(), symbols_.end(), pc,
      [](Addr value, const SymEntry& e) { return value < e.addr; });
  if (it == symbols_.begin()) return sym;
  --it;
  if (pc >= it->end) return sym;  // in the gap after a registered image
  sym.program = it->program;
  sym.label = it->label;
  sym.offset = pc - it->addr;
  sym.known = true;
  return sym;
}

void Session::write_folded(std::ostream& os) const {
  // frame stack -> cycles, ordered (deterministic output).
  std::map<std::string, u64> folded;
  for (const auto& [core_name, core] : cores_) {
    for (const auto& [start, bp] : core->blocks()) {
      const Symbol sym = symbolize(start);
      std::string prefix = core_name;
      prefix += ';';
      if (sym.known) {
        prefix.append(sym.program);
        prefix += ';';
        prefix.append(sym.label);
      } else {
        prefix += "unknown;";
        prefix += hex_addr(start);
      }
      u64 cycles = 0;
      u64 stalls[kNumReasons] = {};
      for (const InstrStats& s : bp.stats) {
        cycles += s.cycles;
        for (size_t i = 0; i < kNumReasons; ++i) stalls[i] += s.stalls[i];
      }
      u64 stall_total = 0;
      for (size_t i = 0; i < kNumReasons; ++i) {
        if (stalls[i] == 0) continue;
        stall_total += stalls[i];
        folded[prefix + ";[" + reason_name(static_cast<Reason>(i)) + "]"] +=
            stalls[i];
      }
      if (cycles > stall_total) folded[prefix] += cycles - stall_total;
    }
  }
  for (const auto& [stack, cycles] : folded) {
    os << stack << ' ' << cycles << '\n';
  }
}

void Session::write_annotated(std::ostream& os, size_t max_blocks) const {
  char line[256];
  for (const auto& [core_name, core] : cores_) {
    os << "== core " << core_name << ": " << core->total_cycles()
       << " cycles, " << core->total_stalls() << " stalled ==\n";
    // Hottest blocks first; start address breaks ties deterministically.
    struct Ranked {
      u64 cycles = 0;
      const BlockProfile* bp = nullptr;
    };
    std::vector<Ranked> ranked;
    for (const auto& [start, bp] : core->blocks()) {
      u64 cycles = 0;
      for (const InstrStats& s : bp.stats) cycles += s.cycles;
      ranked.push_back({cycles, &bp});
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked& a, const Ranked& b) {
                return a.cycles != b.cycles ? a.cycles > b.cycles
                                            : a.bp->start < b.bp->start;
              });
    if (max_blocks != 0 && ranked.size() > max_blocks) {
      ranked.resize(max_blocks);
    }
    const double core_cycles =
        core->total_cycles() == 0 ? 1.0
                                  : static_cast<double>(core->total_cycles());
    for (const Ranked& r : ranked) {
      const BlockProfile& bp = *r.bp;
      const Symbol sym = symbolize(bp.start);
      os << "\nblock " << hex_addr(bp.start) << " <";
      if (sym.known) {
        os << sym.program << ':' << sym.label;
        if (sym.offset != 0) os << '+' << hex_addr(sym.offset);
      } else {
        os << "unknown";
      }
      std::snprintf(line, sizeof(line), ">  cycles %llu (%.1f%%)\n",
                    static_cast<unsigned long long>(r.cycles),
                    100.0 * static_cast<double>(r.cycles) / core_cycles);
      os << line;
      std::snprintf(line, sizeof(line), "  %10s %8s %10s  %-16s %-12s %s\n",
                    "cycles", "count", "stall", "worst", "pc",
                    "instruction");
      os << line;
      for (size_t i = 0; i < bp.stats.size(); ++i) {
        const InstrStats& s = bp.stats[i];
        if (s.count == 0 && s.cycles == 0) continue;
        size_t worst = 0;
        for (size_t j = 1; j < kNumReasons; ++j) {
          if (s.stalls[j] > s.stalls[worst]) worst = j;
        }
        const char* worst_name =
            s.stalls[worst] == 0 ? "-"
                                 : reason_name(static_cast<Reason>(worst));
        const std::string dis = i < bp.instrs.size()
                                    ? isa::disasm(bp.instrs[i])
                                    : std::string("<re-decoded>");
        std::snprintf(line, sizeof(line),
                      "  %10llu %8llu %10llu  %-16s %-12s %s\n",
                      static_cast<unsigned long long>(s.cycles),
                      static_cast<unsigned long long>(s.count),
                      static_cast<unsigned long long>(stall_sum(s)),
                      worst_name, hex_addr(bp.start + 4 * i).c_str(),
                      dis.c_str());
        os << line;
      }
    }
    os << '\n';
  }
}

void Session::add_report_tables(report::MetricsReport& rep) const {
  u64 all_cycles = 0;
  u64 all_stalls = 0;
  report::Table& rollup = rep.add_table(
      "profile: cycle attribution",
      {"core", "cycles", "exec", "stall", "stall_pct"});
  for (const auto& [name, core] : cores_) {
    const u64 cycles = core->total_cycles();
    const u64 stalls = core->total_stalls();
    all_cycles += cycles;
    all_stalls += stalls;
    rollup.add_row(
        {report::Value::text(name), report::Value::uinteger(cycles),
         report::Value::uinteger(cycles - stalls),
         report::Value::uinteger(stalls),
         report::Value::number(
             cycles == 0 ? 0.0
                         : 100.0 * static_cast<double>(stalls) /
                               static_cast<double>(cycles),
             1)});
  }
  report::Table& reasons = rep.add_table(
      "profile: stall reasons", {"core", "reason", "cycles", "pct_of_core"});
  for (const auto& [name, core] : cores_) {
    const u64 cycles = core->total_cycles();
    for (size_t i = 0; i < kNumReasons; ++i) {
      const u64 v = core->reason_total(static_cast<Reason>(i));
      if (v == 0) continue;
      reasons.add_row(
          {report::Value::text(name),
           report::Value::text(reason_name(static_cast<Reason>(i))),
           report::Value::uinteger(v),
           report::Value::number(cycles == 0
                                     ? 0.0
                                     : 100.0 * static_cast<double>(v) /
                                           static_cast<double>(cycles),
                                 1)});
    }
  }
  rep.add_metric("profile.total_cycles", report::Value::uinteger(all_cycles),
                 "cycles");
  rep.add_metric("profile.total_stall_cycles",
                 report::Value::uinteger(all_stalls), "cycles");
}

void Session::flush_trace_counters() {
  if (!trace::enabled()) return;
  for (auto& [name, core] : cores_) {
    core->flush_trace_counters(core->last_cycle_);
  }
}

std::string Session::check_conservation() const {
  for (const auto& [name, core] : cores_) {
    u64 cycles = 0;
    u64 stalls[kNumReasons] = {};
    for (const auto& [start, bp] : core->blocks()) {
      for (const InstrStats& s : bp.stats) {
        cycles += s.cycles;
        u64 instr_stalls = 0;
        for (size_t i = 0; i < kNumReasons; ++i) {
          stalls[i] += s.stalls[i];
          instr_stalls += s.stalls[i];
        }
        if (instr_stalls > s.cycles) {
          return "core " + name + " block " + hex_addr(start) +
                 ": instruction stalls exceed its cycles";
        }
      }
    }
    if (cycles != core->total_cycles()) {
      return "core " + name + ": per-block cycles " + std::to_string(cycles) +
             " != total " + std::to_string(core->total_cycles());
    }
    for (size_t i = 0; i < kNumReasons; ++i) {
      const u64 expect = core->reason_total(static_cast<Reason>(i));
      if (stalls[i] != expect) {
        return "core " + name + " reason " +
               reason_name(static_cast<Reason>(i)) + ": per-block stalls " +
               std::to_string(stalls[i]) + " != total " +
               std::to_string(expect);
      }
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// Bench wiring

void note_gap(std::string_view core_name, Reason r) {
  if (!enabled()) return;
  session().core(core_name)->note_gap(r);
}

void configure(const report::BenchOptions& options) {
  if (!options.profile) return;
  Session& s = session();
  s.reset();
  s.enable();
}

void finish_bench(report::MetricsReport& rep,
                  const report::BenchOptions& options) {
  if (!options.profile) return;
  Session& s = session();
  s.flush_trace_counters();
  const std::string err = s.check_conservation();
  HULKV_CHECK(err.empty(), "profile conservation violated: " + err);
  s.add_report_tables(rep);
  if (!options.profile_path.empty()) {
    const std::string folded_path = options.profile_path + ".folded";
    const std::string annotated_path =
        options.profile_path + ".annotated.txt";
    std::ofstream folded(folded_path);
    HULKV_CHECK(folded.good(), "cannot write " + folded_path);
    s.write_folded(folded);
    std::ofstream annotated(annotated_path);
    HULKV_CHECK(annotated.good(), "cannot write " + annotated_path);
    s.write_annotated(annotated);
    std::printf("[profile] wrote %s and %s\n", folded_path.c_str(),
                annotated_path.c_str());
  }
}

}  // namespace hulkv::profile
