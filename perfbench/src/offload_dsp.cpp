// offload_dsp: the device half of Fig. 6 (bench/fig6_speedup.cpp), six
// ops. An op builds the shipped SoC (HyperRAM + LLC) and an offload
// runtime, stages the kernel's inputs in L2, registers the kernel, and
// offloads it twice: cold (with the lazy code load) and warm. The CVA6
// baseline run of the figure is left out, so the cluster ISS, TCDM,
// scheduler and DMA do nearly all the work while the host sleeps.
#include <array>
#include <functional>
#include <optional>
#include <string>

#include "common/half.hpp"
#include "common/rng.hpp"
#include "kernels/cluster_kernels.hpp"
#include "kernels/golden.hpp"
#include "runtime/offload.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace hulkv;

constexpr u32 kTcdm = static_cast<u32>(mem::map::kTcdmBase);

/// An L2 buffer: staged input bytes, or an output of `bytes` bytes.
struct Buffer {
  u64 bytes = 0;
  std::vector<u8> init;
};

Buffer input(std::vector<u8> init) { return {init.size(), std::move(init)}; }
Buffer output(u64 bytes) { return {bytes, {}}; }

struct Case {
  std::string label;
  kernels::KernelProgram device;
  std::vector<Buffer> buffers;  // in the figure's allocation order
  /// Kernel arguments from the buffers' L2 addresses.
  std::function<std::vector<u32>(const std::vector<Addr>&)> args;
  /// Where the result is read back from, given the buffers' addresses.
  std::function<Addr(const std::vector<Addr>&)> out_addr;
  std::vector<u8> golden;  // expected result bytes after both offloads
};

/// The figure draws the CVA6 baseline's inputs from the same generator
/// first; skipping as many draws keeps seed 0 on the figure's inputs.
void skip(Xoshiro256& rng, u64 draws) {
  for (u64 i = 0; i < draws; ++i) rng.next();
}

std::vector<i8> random_i8(Xoshiro256& rng, u64 count) {
  std::vector<i8> out(count);
  for (auto& v : out) v = static_cast<i8>(static_cast<u8>(rng.next()));
  return out;
}

std::vector<u16> random_f16(Xoshiro256& rng, u64 count) {
  std::vector<u16> out(count);
  for (auto& v : out) {
    v = float_to_half_bits(static_cast<float>(rng.next_range(-64, 64)) /
                           16.0f);
  }
  return out;
}

constexpr u64 kFigureSeed = 12345;

Case matmul_i8(u64 seed) {
  const u32 m = 96, n = 96, k = 96;
  Xoshiro256 rng(input_seed(kFigureSeed, seed));
  skip(rng, u64{m} * k * 4 + u64{k} * n * 4);
  const std::vector<i8> a = random_i8(rng, u64{m} * k);
  const std::vector<i8> bt = random_i8(rng, u64{n} * k);
  std::vector<i32> c(u64{m} * n);
  kernels::golden::matmul_i8(a, bt, c, m, n, k);
  return {"matmul-i8", kernels::cluster_matmul_i8(m, n, k),
          {input(bytes_of(a)), input(bytes_of(bt)), output(u64{m} * n * 4)},
          [=](const std::vector<Addr>& p) {
            const u32 a_l1 = kTcdm + 0x100, bt_l1 = a_l1 + m * k;
            return std::vector<u32>{static_cast<u32>(p[0]),
                                    static_cast<u32>(p[1]),
                                    static_cast<u32>(p[2]), a_l1, bt_l1,
                                    bt_l1 + n * k};
          },
          [](const std::vector<Addr>& p) { return p[2]; }, bytes_of(c)};
}

Case conv3x3_i8(u64 seed) {
  const u32 h = 64, w = 64;
  Xoshiro256 rng(input_seed(kFigureSeed, seed));
  skip(rng, u64{h} * w * 4 + 36);
  const std::vector<i8> img = random_i8(rng, u64{h} * w);
  const std::vector<i8> ker = random_i8(rng, 12);  // 9 taps, padded
  std::vector<i32> out(u64{h - 2} * (w - 2));
  kernels::golden::conv3x3_i8(img, std::span(ker).first(9), out, h, w);
  return {"conv3x3-i8", kernels::cluster_conv3x3_i8(h, w),
          {input(bytes_of(img)), input(bytes_of(ker)), output(out.size() * 4)},
          [=](const std::vector<Addr>& p) {
            const u32 img_l1 = kTcdm + 0x100, ker_l1 = img_l1 + h * w;
            return std::vector<u32>{static_cast<u32>(p[0]),
                                    static_cast<u32>(p[1]),
                                    static_cast<u32>(p[2]), img_l1, ker_l1,
                                    ker_l1 + 16};
          },
          [](const std::vector<Addr>& p) { return p[2]; }, bytes_of(out)};
}

Case fir_i8(u64 seed) {
  const u32 n = 4096, taps = 32;
  Xoshiro256 rng(input_seed(kFigureSeed, seed));
  skip(rng, u64{n} * 4 + u64{taps} * 4);
  const std::vector<i8> x = random_i8(rng, n);
  const std::vector<i8> h = random_i8(rng, taps);
  std::vector<i32> y(n - taps + 1);
  kernels::golden::fir_i8(x, h, y, n, taps);
  return {"fir-i8", kernels::cluster_fir_i8(n, taps),
          {input(bytes_of(x)), input(bytes_of(h)), output(u64{n} * 4)},
          [=](const std::vector<Addr>& p) {
            const u32 x_l1 = kTcdm + 0x100, h_l1 = x_l1 + n;
            return std::vector<u32>{static_cast<u32>(p[0]),
                                    static_cast<u32>(p[1]),
                                    static_cast<u32>(p[2]), x_l1, h_l1,
                                    h_l1 + 64};
          },
          [](const std::vector<Addr>& p) { return p[2]; }, bytes_of(y)};
}

Case matmul_f16(u64 seed) {
  const u32 m = 48, n = 48, k = 48;
  Xoshiro256 rng(input_seed(kFigureSeed, seed));
  skip(rng, u64{m} * k + u64{k} * n);
  const std::vector<u16> a = random_f16(rng, u64{m} * k);
  const std::vector<u16> bt = random_f16(rng, u64{n} * k);
  std::vector<float> c(u64{m} * n);
  kernels::golden::matmul_f16(a, bt, c, m, n, k);
  return {"matmul-f16", kernels::cluster_matmul_f16(m, n, k),
          {input(bytes_of(a)), input(bytes_of(bt)), output(u64{m} * n * 4)},
          [=](const std::vector<Addr>& p) {
            const u32 a_l1 = kTcdm + 0x100, bt_l1 = a_l1 + m * k * 2;
            return std::vector<u32>{static_cast<u32>(p[0]),
                                    static_cast<u32>(p[1]),
                                    static_cast<u32>(p[2]), a_l1, bt_l1,
                                    bt_l1 + n * k * 2};
          },
          [](const std::vector<Addr>& p) { return p[2]; }, bytes_of(c)};
}

Case axpy_f16(u64 seed) {
  const u32 n = 16384;
  Xoshiro256 rng(input_seed(kFigureSeed, seed));
  skip(rng, u64{n} * 2);
  const std::vector<u16> x = random_f16(rng, n);
  const std::vector<u16> y0 = random_f16(rng, n);
  const u16 alpha = float_to_half_bits(0.75f);
  // In place: y after the cold and the warm offload.
  std::vector<u16> y = y0;
  kernels::golden::axpy_f16(alpha, x, y);
  kernels::golden::axpy_f16(alpha, x, y);
  const u32 alpha_pair = alpha | (static_cast<u32>(alpha) << 16);
  return {"axpy-f16", kernels::cluster_axpy_f16(n),
          {input(bytes_of(x)), input(bytes_of(y0))},
          [=](const std::vector<Addr>& p) {
            const u32 x_l1 = kTcdm + 0x100;
            return std::vector<u32>{static_cast<u32>(p[0]),
                                    static_cast<u32>(p[1]), alpha_pair, x_l1,
                                    x_l1 + n * 2};
          },
          [](const std::vector<Addr>& p) { return p[1]; }, bytes_of(y)};
}

Case dotp_f16(u64 seed) {
  const u32 n = 16384;
  Xoshiro256 rng(input_seed(kFigureSeed, seed));
  skip(rng, u64{n} * 2);
  const std::vector<u16> x = random_f16(rng, n);
  const std::vector<u16> y = random_f16(rng, n);
  // The kernel splits the vectors into one contiguous chunk per core
  // and core 0 sums the partials in core order.
  const u32 chunk = n / 8;
  float want = 0.0f;
  for (u32 c = 0; c < 8; ++c) {
    want += kernels::golden::dotp_f16(std::span(x).subspan(c * chunk, chunk),
                                      std::span(y).subspan(c * chunk, chunk));
  }
  const u32 x_l1 = kTcdm + 0x100, y_l1 = x_l1 + n * 2;
  const u32 part_l1 = y_l1 + n * 2, res_l1 = part_l1 + 64;
  return {"dotp-f16", kernels::cluster_dotp_f16(n),
          {input(bytes_of(x)), input(bytes_of(y))},
          [=](const std::vector<Addr>& p) {
            return std::vector<u32>{static_cast<u32>(p[0]),
                                    static_cast<u32>(p[1]), x_l1, y_l1,
                                    part_l1, res_l1};
          },
          [=](const std::vector<Addr>&) { return Addr{res_l1}; },
          bytes_of(std::vector<float>{want})};
}

class OffloadDsp final : public Workload {
 public:
  explicit OffloadDsp(u64 seed) : seed_(seed) {}

  void setup(Recorder& rec) override {
    constexpr std::array<Case (*)(u64), 6> kBuilders = {
        matmul_i8, conv3x3_i8, fir_i8, matmul_f16, axpy_f16, dotp_f16};
    cases_.clear();
    for (std::uint32_t i = 0; i < kBuilders.size(); ++i) {
      Recorder::Span span(rec, "setup.case", i);
      cases_.push_back(kBuilders[i](seed_));
    }
  }

  std::size_t op_count() const override { return cases_.size(); }

  std::string unit_name(std::uint32_t unit) const override {
    return cases_[unit].label;
  }

  OpRun run_op(std::size_t op, Recorder& rec) override {
    const Case& c = cases_[op];
    const auto unit = static_cast<std::uint32_t>(op);
    std::optional<core::HulkVSoc> soc;
    {
      Recorder::Span span(rec, "core.soc_new", unit);
      soc.emplace();  // the shipped SoC: HyperRAM + LLC
    }
    runtime::OffloadRuntime rt(&*soc);
    std::vector<Addr> addrs;
    {
      Recorder::Span span(rec, "kernels.stage", unit);
      for (const Buffer& b : c.buffers) {
        addrs.push_back(rt.l2_arena().alloc(b.bytes, 64));
        soc->write_mem(addrs.back(), b.init.data(), b.init.size());
      }
    }
    runtime::KernelHandle handle;
    {
      Recorder::Span span(rec, "runtime.register", unit);
      handle = rt.register_kernel(c.label, c.device.words, c.device.symbols);
    }
    const std::vector<u32> args = c.args(addrs);
    runtime::OffloadRuntime::OffloadResult cold, warm;
    {
      Recorder::Span span(rec, "runtime.offload_cold", unit);
      cold = rt.offload(handle, args);
    }
    {
      Recorder::Span span(rec, "runtime.offload_warm", unit);
      warm = rt.offload(handle, args);
    }
    output_.resize(c.golden.size());
    soc->read_mem(c.out_addr(addrs), output_.data(), output_.size());

    const u64 cluster_instret = cold.cluster_instret + warm.cluster_instret;
    if (rec.tracing()) {
      cluster::Cluster& cl = soc->cluster();
      double icache_misses = 0;
      for (u32 i = 0; i < cl.num_cores(); ++i) {
        icache_misses += static_cast<double>(
            cl.icache().private_cache(i).stats().get("misses"));
      }
      rec.count("host.instret", static_cast<double>(soc->host().instret()));
      rec.count("cluster.instret", static_cast<double>(cluster_instret));
      rec.count("runtime.code_load_cycles",
                static_cast<double>(cold.code_load));
      rec.count("cluster.tcdm_conflicts",
                static_cast<double>(cl.tcdm().stats().get("conflicts")));
      rec.count("cluster.icache_misses", icache_misses);
      rec.count("cluster.dma_bytes",
                static_cast<double>(cl.dma().stats().get("bytes")));
      count_delta(rec, SocCounters{}, read_counters(*soc));
    }
    return {cluster_instret + soc->host().instret(), cold.total + warm.total};
  }

  std::string check_op(std::size_t op) override {
    return compare_bytes(output_, cases_[op].golden);
  }

  double nominal_pass_seconds() const override { return 0.15; }

 private:
  u64 seed_;
  std::vector<Case> cases_;
  std::vector<u8> output_;
};

}  // namespace

std::unique_ptr<Workload> make_offload_dsp(std::uint64_t seed) {
  return std::make_unique<OffloadDsp>(seed);
}

}  // namespace perfbench
