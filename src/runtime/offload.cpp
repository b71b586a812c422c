#include "runtime/offload.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "profile/profile.hpp"
#include "trace/trace.hpp"

namespace hulkv::runtime {

namespace {
/// Mailbox event propagation + host wake-up from WFI.
constexpr Cycles kMailboxLatency = 6;
/// Stack reservation at the top of TCDM (1 kB per core, cluster.cpp).
constexpr u64 kStackReserve = 8 * 1024;
}  // namespace

OffloadRuntime::OffloadRuntime(core::HulkVSoc* soc)
    : soc_(soc),
      shared_(core::layout::kSharedBase, core::layout::kSharedSize),
      l2_arena_(mem::map::kL2Base, mem::map::kL2Size),
      tcdm_arena_(mem::map::kTcdmBase + kArgBlockBytes,
                  soc->cluster().tcdm().storage().size() - kArgBlockBytes -
                      kStackReserve) {
  HULKV_CHECK(soc != nullptr, "runtime needs a SoC");
}

analysis::Analysis OffloadRuntime::analyze_kernel_program(
    const std::vector<u32>& words) const {
  analysis::Options options;
  options.base = 0;  // kernels are assembled position-independent
  options.profile = analysis::IsaProfile::kClusterRv32;
  options.pic = true;
  options.iopmp = &soc_->iopmp();
  options.tcdm_bytes = soc_->cluster().tcdm().storage().size();
  options.policy = analysis_policy_;
  // Cluster::run_kernel entry convention: a0 points at the argument
  // block, sp at this core's 1 kB stack slice below the TCDM top.
  const u64 tcdm_top = mem::map::kTcdmBase + options.tcdm_bytes;
  const u32 num_cores = soc_->cluster().num_cores();
  options.entry_values.emplace_back(
      isa::reg::a0, analysis::Interval::constant(kArgBlockBase, 32));
  options.entry_values.emplace_back(
      isa::reg::sp,
      analysis::Interval::range(
          tcdm_top - u64{num_cores > 0 ? num_cores - 1 : 0} * 1024,
          tcdm_top));
  return analysis::analyze_program(words, options);
}

KernelHandle OffloadRuntime::register_kernel(
    const std::string& name, const std::vector<u32>& words,
    std::vector<std::pair<std::string, u64>> symbols) {
  HULKV_CHECK(!words.empty(), "registering an empty kernel");
  if (analysis_mode_ != AnalysisMode::kOff) {
    const analysis::Report report = analyze_kernel_program(words).report;
    analysis::log_report(report, name);
    if (analysis_mode_ == AnalysisMode::kReject && !report.ok()) {
      throw SimError("kernel '" + name + "' rejected by static analysis:\n" +
                     report.to_string());
    }
  }
  Image image;
  image.name = name;
  image.bytes = static_cast<u32>(words.size() * 4);
  image.symbols = std::move(symbols);
  image.dram_addr = shared_.arena().alloc(image.bytes, 64);
  soc_->write_mem(image.dram_addr, words.data(), image.bytes);
  images_.push_back(image);
  names_.push_back(name);
  log(LogLevel::kDebug, "offload", "registered kernel '", name, "' (",
      image.bytes, " B)");
  return {static_cast<u32>(images_.size() - 1)};
}

Cycles OffloadRuntime::load_code(Image& image) {
  auto& host = soc_->host();
  const Cycles start = host.now();
  image.l2_addr = l2_arena_.alloc(image.bytes, 64);

  // Driver-side copy external memory -> L2SPM, 64-byte chunks over the
  // AXI crossbar (this is the lazy load of section VI-A: for short
  // kernels it dominates the offload).
  u8 buffer[64];
  Cycles t = start;
  for (u32 off = 0; off < image.bytes; off += 64) {
    const u32 n = std::min<u32>(64, image.bytes - off);
    t = soc_->bus().read(t, image.dram_addr + off, buffer, n,
                         mem::Master::kHost);
    t = soc_->bus().write(t, image.l2_addr + off, buffer, n,
                          mem::Master::kHost);
  }
  host.advance_to(t);
  soc_->cluster().on_code_loaded(image.l2_addr, image.bytes);
  // Tell the profiler where this image now lives; re-registration after
  // an evict_all() displaces whatever previously occupied the range.
  profile::session().register_symbols(image.l2_addr, image.bytes,
                                      image.name, image.symbols);
  if (trace::enabled()) {
    auto& sink = trace::sink();
    sink.complete(sink.resolve(trace_track_, "offload"),
                  trace::Ev::kCodeLoad, start, t, image.bytes);
  }
  log(LogLevel::kDebug, "offload", "lazy-loaded '", image.name, "' to L2 in ",
      t - start, " cycles");
  return t - start;
}

void OffloadRuntime::preload(KernelHandle kernel) {
  HULKV_CHECK(kernel.index < images_.size(), "bad kernel handle");
  Image& image = images_[kernel.index];
  if (image.l2_addr == 0) load_code(image);
}

void OffloadRuntime::evict_all() {
  for (Image& image : images_) image.l2_addr = 0;
  l2_arena_.reset();
}

OffloadRuntime::OffloadResult OffloadRuntime::offload(
    KernelHandle kernel, std::span<const u32> args, u32 team_size) {
  HULKV_CHECK(kernel.index < images_.size(), "bad kernel handle");
  HULKV_CHECK(args.size() * 4 <= kArgBlockBytes, "argument block overflow");
  Image& image = images_[kernel.index];
  auto& host = soc_->host();

  OffloadResult result;
  const Cycles t0 = host.now();
  const u64 claimed_before = profile::claimed();

  // 1. Lazy code load.
  if (image.l2_addr == 0) result.code_load = load_code(image);

  // 2. Argument marshalling into the TCDM argument block.
  const Cycles marshal_start = host.now();
  Cycles t = marshal_start;
  for (size_t i = 0; i < args.size(); ++i) {
    t = soc_->bus().write(t, kArgBlockBase + 4 * i, &args[i], 4,
                          mem::Master::kHost);
  }
  if (trace::enabled() && t > marshal_start) {
    auto& sink = trace::sink();
    sink.complete(sink.resolve(trace_track_, "offload"), trace::Ev::kMarshal,
                  marshal_start, t, args.size() * 4);
  }

  // 3. Doorbell: post the kernel id to the cluster mailbox.
  const u32 doorbell = kernel.index;
  t = soc_->bus().write(t, core::apbmap::kMailboxBase + core::Mailbox::kH2cWrite,
                        &doorbell, 4, mem::Master::kHost);
  host.advance_to(t);
  (void)soc_->mailbox().pop_cluster();  // cluster runtime consumes it
  if (trace::enabled()) {
    auto& sink = trace::sink();
    sink.instant(sink.resolve(trace_track_, "offload"), trace::Ev::kMailbox,
                 t, doorbell);
  }

  // 4. Event-unit dispatch + execution on the 8 cores.
  const auto kres = soc_->cluster().run_kernel(
      t, image.l2_addr, static_cast<u32>(kArgBlockBase), team_size);
  result.kernel = kres.cycles;
  result.cluster_instret = kres.instret;

  // 5. Completion: mailbox back to the host (PLIC wakes it from WFI).
  soc_->mailbox().post_to_host(0xD07E);  // "done" token
  host.advance_to(kres.finish + kMailboxLatency);
  u32 token = 0;
  host.advance_to(soc_->bus().read(
      host.now(), core::apbmap::kMailboxBase + core::Mailbox::kC2hRead,
      &token, 4, mem::Master::kHost));
  soc_->plic().clear(core::kMailboxIrqSource);

  result.total = host.now() - t0;
  result.handshake = result.total - result.code_load - result.kernel;
  // When invoked from a guest ecall, the whole offload sits inside the
  // host's instruction bracket. Timing models claimed their shares into
  // it above (code-load/marshalling bus traffic); the remainder — the
  // cluster run and the handshake — is time the host spent waiting on
  // the offload. (Cluster-core brackets use their own scratch and do
  // not claim here.)
  profile::add(profile::Reason::kOffloadWait,
               profile::own_share(result.total,
                                  profile::claimed() - claimed_before));
  if (trace::enabled()) {
    auto& sink = trace::sink();
    const u32 track = sink.resolve(trace_track_, "offload");
    sink.complete(track, trace::Ev::kKernel, kres.start, kres.finish,
                  kernel.index);
    sink.instant(track, trace::Ev::kMailbox, kres.finish + kMailboxLatency,
                 0xD07E);
    sink.complete(track, trace::Ev::kOffload, t0, host.now(), kernel.index);
  }
  return result;
}

void OffloadRuntime::install_host_syscalls() {
  soc_->host().set_syscall_handler(
      [this](host::Cva6Core& core) -> host::Cva6Core::SyscallAction {
        const u64 num = core.reg(isa::reg::a7);
        if (num == kSyscallOffload) {
          const u32 index = static_cast<u32>(core.reg(isa::reg::a0));
          const Addr arg_ptr = core.reg(isa::reg::a1);
          const u64 nargs = core.reg(isa::reg::a2);
          std::vector<u32> args(nargs);
          if (nargs > 0) {
            soc_->read_mem(arg_ptr, args.data(), nargs * 4);
          }
          const OffloadResult r = offload({index}, args);
          core.set_reg(isa::reg::a0, r.total);
          return host::Cva6Core::SyscallAction::kContinue;
        }
        if (num == kSyscallOffload + 1) {  // hulk_malloc(a0 = bytes)
          core.set_reg(isa::reg::a0, hulk_malloc(core.reg(isa::reg::a0)));
          return host::Cva6Core::SyscallAction::kContinue;
        }
        throw SimError("unknown host syscall a7=" + std::to_string(num));
      });

  // WFI during offload: the host sleeps until the mailbox IRQ; in the
  // direct-call model the clock has already advanced past the wake-up, so
  // a pending message wakes immediately.
  soc_->host().set_wfi_handler([](Cycles now) { return now + 1; });
}

// ---- checkpoint / restore ----------------------------------------------

void OffloadRuntime::save(std::ostream& os) {
  soc_->save(os, [this](snapshot::Writer& writer) {
    writer.section(snapshot::kRuntime,
                   [this](snapshot::Archive& ar) { serialize(ar); });
  });
}

void OffloadRuntime::restore(std::istream& is) {
  soc_->restore(is, [this](const snapshot::Reader& reader) {
    reader.section(snapshot::kRuntime,
                   [this](snapshot::Archive& ar) { serialize(ar); });
  });
}

u64 OffloadRuntime::state_digest() {
  snapshot::Archive ar = snapshot::Archive::hasher();
  u64 soc_digest = soc_->state_digest();
  ar.pod(soc_digest);
  serialize(ar);
  return ar.hash();
}

void OffloadRuntime::serialize(snapshot::Archive& ar) {
  shared_.serialize(ar);
  l2_arena_.serialize(ar);
  tcdm_arena_.serialize(ar);
  // Smallest image record: the name's length prefix and three fields.
  constexpr u64 kImageBytes =
      sizeof(u64) + 2 * sizeof(Addr) + sizeof(Image::bytes);
  u64 count = images_.size();
  ar.count(count, kImageBytes);
  if (ar.loading()) {
    images_.resize(count);
    names_.resize(count);
  }
  for (u64 i = 0; i < count; ++i) {
    Image& image = images_[i];
    ar.str(image.name);
    ar.pod(image.dram_addr);
    ar.pod(image.l2_addr);
    ar.pod(image.bytes);
    if (ar.loading()) names_[i] = image.name;
  }
}

}  // namespace hulkv::runtime
