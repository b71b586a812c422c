// iot_host: the Fig. 8 grid (bench/fig8_llc_effect.cpp). Five IoT
// programs at the figure's sizes, each on {DDR4, HyperRAM} x {LLC on,
// off}: 20 ops. An op is the bench's run_on(): a fresh SoC, staged
// inputs, a warm run and a timed run. The host ISS and its L1/LLC/DRAM
// timing models do nearly all the work; nothing forks, offloads or uses
// a socket.
#include <array>
#include <optional>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "kernels/golden.hpp"
#include "kernels/host_kernels.hpp"
#include "kernels/iot_benchmarks.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace hulkv;

struct Program {
  std::string name;
  kernels::KernelProgram program;
  std::vector<std::pair<Addr, std::vector<u8>>> inputs;
  std::vector<u64> args;
  Addr out_addr = 0;
  std::vector<u8> golden;  // expected bytes at out_addr after the runs
};

constexpr Addr kBase = core::layout::kSharedBase;

// Sizes and generator seeds of bench/fig8_llc_effect.cpp.
Program crc32(u64 seed) {
  const u32 n = 64 * 1024;
  Xoshiro256 rng(input_seed(1, seed));
  std::vector<u8> data(n);
  for (auto& b : data) b = static_cast<u8>(rng.next());
  const std::vector<u32> table = kernels::golden::crc32_table();
  const Addr pt = kBase + n;
  const Addr pr = pt + 1024;
  const std::vector<u32> crc = {kernels::golden::crc32(data)};
  return {"crc32", kernels::host_crc32(n),
          {{kBase, data}, {pt, bytes_of(table)}}, {kBase, pt, pr}, pr,
          bytes_of(crc)};
}

Program fir(u64 seed) {
  const u32 n = 16384, taps = 32;
  Xoshiro256 rng(input_seed(2, seed));
  std::vector<i32> x(n), h(taps);
  for (auto& v : x) v = static_cast<i32>(rng.next_range(-1000, 1000));
  for (auto& v : h) v = static_cast<i32>(rng.next_range(-16, 16));
  const Addr ph = kBase + n * 4;
  const Addr py = ph + taps * 4;
  std::vector<i32> y(n - taps + 1);
  kernels::golden::fir_i32(x, h, y, n, taps);
  return {"fir", kernels::host_fir_i32(n, taps),
          {{kBase, bytes_of(x)}, {ph, bytes_of(h)}}, {kBase, ph, py}, py,
          bytes_of(y)};
}

Program sort(u64 seed) {
  const u32 n = 16384;
  Xoshiro256 rng(input_seed(3, seed));
  std::vector<i32> data(n);
  for (auto& v : data) v = static_cast<i32>(rng.next_range(-1000000, 1000000));
  std::vector<i32> sorted = data;
  kernels::golden::shell_sort(sorted);
  return {"sort", kernels::host_shell_sort(n), {{kBase, bytes_of(data)}},
          {kBase}, kBase, bytes_of(sorted)};
}

Program histogram(u64 seed) {
  const u32 n = 96 * 1024;
  Xoshiro256 rng(input_seed(4, seed));
  std::vector<u8> data(n);
  for (auto& b : data) b = static_cast<u8>(rng.next());
  const Addr pb = kBase + n;
  std::vector<u32> bins(256);
  kernels::golden::histogram(data, bins);
  return {"histogram", kernels::host_histogram(n), {{kBase, data}},
          {kBase, pb}, pb, bytes_of(bins)};
}

Program strsearch(u64 seed) {
  const u32 n = 96 * 1024, m = 8;
  Xoshiro256 rng(input_seed(5, seed));
  std::vector<u8> hay(n);
  for (auto& b : hay) b = static_cast<u8>('a' + rng.next_below(4));
  const std::vector<u8> needle = {'a', 'b', 'c', 'd', 'a', 'b', 'c', 'd'};
  const Addr pn = kBase + n;
  const Addr pr = pn + 64;
  const std::vector<u32> count = {kernels::golden::strsearch(hay, needle)};
  return {"strsearch", kernels::host_strsearch(n, m),
          {{kBase, hay}, {pn, needle}}, {kBase, pn, pr}, pr, bytes_of(count)};
}

// Column order of the figure.
constexpr std::array<std::pair<core::MainMemoryKind, bool>, 4> kConfigs = {
    std::pair{core::MainMemoryKind::kDdr4, true},
    std::pair{core::MainMemoryKind::kHyperRam, true},
    std::pair{core::MainMemoryKind::kDdr4, false},
    std::pair{core::MainMemoryKind::kHyperRam, false}};
constexpr std::array<const char*, 4> kConfigNames = {"ddr4_llc", "hyper_llc",
                                                     "ddr4", "hyper"};

class IotHost final : public Workload {
 public:
  explicit IotHost(u64 seed) : seed_(seed) {}

  void setup(Recorder& rec) override {
    constexpr std::array<Program (*)(u64), 5> kBuilders = {
        crc32, fir, sort, histogram, strsearch};
    programs_.clear();
    for (std::uint32_t i = 0; i < kBuilders.size(); ++i) {
      Recorder::Span span(rec, "setup.program", i);
      programs_.push_back(kBuilders[i](seed_));
    }
  }

  std::size_t op_count() const override {
    return programs_.size() * kConfigs.size();
  }

  std::string unit_name(std::uint32_t unit) const override {
    return programs_[unit / kConfigs.size()].name + "/" +
           kConfigNames[unit % kConfigs.size()];
  }

  OpRun run_op(std::size_t op, Recorder& rec) override {
    const Program& p = programs_[op / kConfigs.size()];
    const auto& [kind, llc] = kConfigs[op % kConfigs.size()];
    const auto unit = static_cast<std::uint32_t>(op);
    core::SocConfig cfg;
    cfg.main_memory = kind;
    cfg.enable_llc = llc;
    std::optional<core::HulkVSoc> soc;
    {
      Recorder::Span span(rec, "core.soc_new", unit);
      soc.emplace(cfg);
    }
    {
      Recorder::Span span(rec, "kernels.stage", unit);
      for (const auto& [addr, bytes] : p.inputs) {
        soc->write_mem(addr, bytes.data(), bytes.size());
      }
    }
    OpRun run;
    for (int i = 0; i < 2; ++i) {  // warm run, then the timed run
      {
        Recorder::Span span(rec, "kernels.prepare", unit);
        kernels::prepare_host_program(*soc, p.program.words, p.args);
      }
      host::Cva6Core::RunResult r;
      {
        Recorder::Span span(rec, "host.run", unit);
        r = soc->host().run();
      }
      HULKV_CHECK(r.exited, p.name + ": host program did not exit");
      run.instret += r.instret;
      run.cycles += r.cycles;
    }
    output_.resize(p.golden.size());
    soc->read_mem(p.out_addr, output_.data(), output_.size());
    if (rec.tracing()) {
      rec.count("host.instret", static_cast<double>(run.instret));
      count_delta(rec, SocCounters{}, read_counters(*soc));
    }
    return run;
  }

  std::string check_op(std::size_t op) override {
    return compare_bytes(output_, programs_[op / kConfigs.size()].golden);
  }

  double nominal_pass_seconds() const override { return 0.9; }

 private:
  u64 seed_;
  std::vector<Program> programs_;
  std::vector<u8> output_;
};

}  // namespace

std::unique_ptr<Workload> make_iot_host(std::uint64_t seed) {
  return std::make_unique<IotHost>(seed);
}

}  // namespace perfbench
