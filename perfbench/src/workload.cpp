#include "workload.hpp"

#include <numeric>

namespace perfbench {

namespace {
constexpr std::size_t kMaxErrors = 8;
}  // namespace

void Tally::record(const std::string& what, const std::string& error) {
  ++attempted;
  if (error.empty()) return;
  ++failed;
  if (errors.size() < kMaxErrors) errors.push_back(what + ": " + error);
}

std::vector<std::size_t> Workload::pass_order(std::uint32_t) {
  std::vector<std::size_t> order(op_count());
  std::iota(order.begin(), order.end(), 0);
  return order;
}

void Workload::after_op(std::size_t, Recorder&, Tally&) {}

void Workload::after_pass(Recorder&, Tally&) {}

std::uint64_t input_seed(std::uint64_t base, std::uint64_t seed) {
  return seed == 0 ? base : base ^ (seed * 0x9E3779B97F4A7C15ull);
}

SocCounters read_counters(hulkv::core::HulkVSoc& soc) {
  const auto accesses = [](const hulkv::StatGroup& s) {
    return static_cast<double>(s.get("reads") + s.get("writes"));
  };
  SocCounters c;
  const hulkv::StatGroup& l1d = soc.host().dcache().stats();
  const hulkv::StatGroup& l1i = soc.host().icache().stats();
  c.l1d_accesses = accesses(l1d);
  c.l1d_misses = static_cast<double>(l1d.get("misses"));
  c.l1i_accesses = accesses(l1i);
  c.l1i_misses = static_cast<double>(l1i.get("misses"));
  c.block_translations =
      static_cast<double>(soc.host().decode_blocks().translations());
  for (hulkv::u32 i = 0; i < soc.cluster().num_cores(); ++i) {
    c.block_translations += static_cast<double>(
        soc.cluster().core(i).decode_blocks().translations());
  }
  if (soc.llc() != nullptr) {
    c.llc_accesses = accesses(soc.llc()->stats());
    c.llc_misses = static_cast<double>(soc.llc()->stats().get("misses"));
  }
  if (soc.hyperram() != nullptr) {
    const hulkv::StatGroup& s = soc.hyperram()->stats();
    c.ext_busy_cycles = static_cast<double>(s.get("busy_cycles"));
    c.refresh_collisions = static_cast<double>(s.get("refresh_collisions"));
  }
  if (soc.ddr4() != nullptr) {
    c.ext_busy_cycles +=
        static_cast<double>(soc.ddr4()->stats().get("busy_cycles"));
  }
  return c;
}

void count_delta(Recorder& recorder, const SocCounters& before,
                 const SocCounters& after) {
  recorder.count("host.l1d_accesses", after.l1d_accesses - before.l1d_accesses);
  recorder.count("host.l1d_misses", after.l1d_misses - before.l1d_misses);
  recorder.count("host.l1i_accesses", after.l1i_accesses - before.l1i_accesses);
  recorder.count("host.l1i_misses", after.l1i_misses - before.l1i_misses);
  recorder.count("isa.block_translations",
                 after.block_translations - before.block_translations);
  recorder.count("mem.llc_accesses", after.llc_accesses - before.llc_accesses);
  recorder.count("mem.llc_misses", after.llc_misses - before.llc_misses);
  recorder.count("mem.ext_busy_cycles",
                 after.ext_busy_cycles - before.ext_busy_cycles);
  recorder.count("mem.refresh_collisions",
                 after.refresh_collisions - before.refresh_collisions);
}

std::string compare_bytes(const std::vector<std::uint8_t>& got,
                          const std::vector<std::uint8_t>& want) {
  if (got.size() != want.size()) {
    return "output is " + std::to_string(got.size()) + " bytes, golden " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      return "output differs from golden at byte " + std::to_string(i);
    }
  }
  return "";
}

}  // namespace perfbench
