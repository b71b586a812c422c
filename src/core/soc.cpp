#include "core/soc.hpp"

#include <istream>

#include "common/log.hpp"
#include "telemetry/telemetry.hpp"

namespace hulkv::core {

HulkVSoc::HulkVSoc(const SocConfig& config)
    : config_(config),
      mailbox_([this] { plic_.raise(kMailboxIrqSource); }),
      clint_([this] { return host_ ? host_->now() : 0; }) {
  l2_.resize(mem::map::kL2Size, 0);
  rom_.resize(mem::map::kBootRomSize, 0);

  // External memory device.
  switch (config_.main_memory) {
    case MainMemoryKind::kHyperRam:
      hyperram_ = std::make_unique<mem::HyperRamModel>(config_.hyperram);
      ext_mem_ = hyperram_.get();
      break;
    case MainMemoryKind::kDdr4:
      ddr4_ = std::make_unique<mem::Ddr4Model>(config_.ddr);
      ext_mem_ = ddr4_.get();
      break;
    case MainMemoryKind::kRpcDram:
      rpcdram_ = std::make_unique<mem::RpcDramModel>(config_.rpcdram);
      ext_mem_ = rpcdram_.get();
      break;
  }

  // LLC in front of the memory controller (optional, Figs. 7/8 sweeps).
  mem::MemTiming* dram_path = ext_mem_;
  if (config_.enable_llc) {
    llc_ = std::make_unique<mem::Llc>(config_.llc, ext_mem_);
    dram_path = llc_.get();
  }

  // Bus wiring.
  bus_.set_boot_rom(&rom_, &rom_timing_);
  bus_.set_l2(&l2_, &l2_timing_);
  bus_.set_dram(&dram_, dram_path);
  bus_.add_mmio(apbmap::kClintBase, apbmap::kClintSize, &clint_,
                &apb_timing_);
  bus_.add_mmio(apbmap::kPlicBase, apbmap::kPlicSize, &plic_, &apb_timing_);
  bus_.add_mmio(apbmap::kMailboxBase, apbmap::kMailboxSize, &mailbox_,
                &apb_timing_);
  bus_.add_mmio(apbmap::kUartBase, apbmap::kUartSize, &uart_, &apb_timing_);

  grant_default_iopmp();
  bus_.set_iopmp([this](Addr addr, u32 bytes, bool is_write) {
    return iopmp_.check(addr, bytes, is_write);
  });

  // Blocks.
  cluster_ = std::make_unique<cluster::Cluster>(config_.cluster, &bus_);
  bus_.set_tcdm(&cluster_->tcdm().storage(), &tcdm_axi_timing_);
  host_ = std::make_unique<host::Cva6Core>(config_.host, &bus_);
  udma_ = std::make_unique<mem::Udma>(&dram_, ext_mem_, &l2_,
                                      mem::map::kL2Base,
                                      mem::map::kDramBase);
  periph_udma_ = std::make_unique<host::PeriphUdma>(
      &l2_, mem::map::kL2Base, &l2_timing_,
      [this] { plic_.raise(kPeriphIrqSource); });

  const char* mem_name = "DDR4";
  if (config_.main_memory == MainMemoryKind::kHyperRam) mem_name = "HyperRAM";
  if (config_.main_memory == MainMemoryKind::kRpcDram) mem_name = "RPC-DRAM";
  log(LogLevel::kInfo, "soc", "HULK-V SoC up: ", mem_name,
      config_.enable_llc ? " + LLC" : " (no LLC)");
}

void HulkVSoc::grant_default_iopmp() {
  // IOPMP: grant the cluster the shared regions (L2SPM, external memory,
  // mailbox); everything else is denied (section III-C).
  iopmp_.add_region({mem::map::kL2Base, mem::map::kL2Size, true, true});
  iopmp_.add_region({mem::map::kDramBase, mem::map::kDramSize, true, true});
  iopmp_.add_region(
      {apbmap::kMailboxBase, apbmap::kMailboxSize, true, true});
}

void HulkVSoc::load_program(Addr base, const std::vector<u32>& words) {
  HULKV_CHECK(!words.empty(), "empty program");
  write_mem(base, words.data(), words.size() * 4);
  // Scope the decode invalidation to the written range: loading a PMCA
  // kernel image no longer throws away the host core's decoded blocks
  // (and vice versa) unless the ranges actually overlap.
  const u64 bytes = words.size() * 4;
  if (host_) host_->invalidate_decode_cache(base, bytes);
  if (cluster_) cluster_->on_code_loaded(base, bytes);
}

void HulkVSoc::write_mem(Addr addr, const void* src, u64 bytes) {
  const u8* p = static_cast<const u8*>(src);
  // Chunk through the bus in page-sized pieces (the bus validates ranges).
  constexpr u64 kChunk = 4096;
  for (u64 off = 0; off < bytes; off += kChunk) {
    const u32 n = static_cast<u32>(std::min(kChunk, bytes - off));
    bus_.write_functional(addr + off, p + off, n);
  }
}

void HulkVSoc::read_mem(Addr addr, void* dst, u64 bytes) {
  u8* p = static_cast<u8*>(dst);
  constexpr u64 kChunk = 4096;
  for (u64 off = 0; off < bytes; off += kChunk) {
    const u32 n = static_cast<u32>(std::min(kChunk, bytes - off));
    bus_.read_functional(addr + off, p + off, n);
  }
}

// ---- checkpoint / restore ----------------------------------------------

namespace {

/// Fold one value into a fingerprint/section archive (members of a
/// const config are copied so the non-const Archive API applies).
template <typename T>
void fold(snapshot::Archive& ar, T value) {
  ar.pod(value);
}

void fold_cache_config(snapshot::Archive& ar, const mem::CacheConfig& c) {
  fold(ar, c.size_bytes);
  fold(ar, c.line_bytes);
  fold(ar, c.ways);
  fold(ar, c.write_through);
  fold(ar, c.write_allocate);
  fold(ar, c.hit_latency);
  fold(ar, c.fill_penalty);
}

}  // namespace

u64 HulkVSoc::config_fingerprint() const { return fingerprint_of(config_); }

u64 HulkVSoc::fingerprint_of(const SocConfig& c) {
  snapshot::Archive ar = snapshot::Archive::hasher();
  fold(ar, static_cast<u32>(c.main_memory));
  fold(ar, c.enable_llc);
  fold(ar, c.hyperram.clk_div);
  fold(ar, c.hyperram.num_buses);
  fold(ar, c.hyperram.chips_per_bus);
  fold(ar, c.hyperram.chip_bytes);
  fold(ar, c.hyperram.t_cmd_bus_clk);
  fold(ar, c.hyperram.t_access_bus_clk);
  fold(ar, c.hyperram.max_burst_bytes);
  fold(ar, c.hyperram.refresh_period);
  fold(ar, c.hyperram.refresh_extra_bus_clk);
  fold(ar, c.ddr.latency);
  fold(ar, c.ddr.bytes_per_cycle);
  fold(ar, c.ddr.total_bytes);
  fold(ar, c.rpcdram.clk_div);
  fold(ar, c.rpcdram.num_banks);
  fold(ar, c.rpcdram.row_bytes);
  fold(ar, c.rpcdram.total_bytes);
  fold(ar, c.rpcdram.t_cmd_bus_clk);
  fold(ar, c.rpcdram.t_rcd_bus_clk);
  fold(ar, c.rpcdram.t_rp_bus_clk);
  fold(ar, c.rpcdram.max_burst_bytes);
  fold(ar, c.rpcdram.refresh_period);
  fold(ar, c.rpcdram.refresh_extra_bus_clk);
  fold(ar, c.llc.axi_data_bytes);
  fold(ar, c.llc.num_blocks);
  fold(ar, c.llc.num_lines);
  fold(ar, c.llc.num_ways);
  fold(ar, c.llc.tag_latency);
  fold(ar, c.llc.hit_latency);
  fold(ar, c.llc.cacheable_base);
  fold(ar, c.llc.cacheable_size);
  fold(ar, c.host.boot_pc);
  fold(ar, c.host.enable_mmu);
  fold(ar, c.host.tlb.entries);
  fold(ar, c.host.tlb.levels);
  fold(ar, c.host.tlb.page_bytes);
  fold(ar, c.host.mul_latency);
  fold(ar, c.host.div_latency);
  fold(ar, c.host.fpu_latency);
  fold(ar, c.host.fdiv_latency);
  fold(ar, c.host.taken_branch_penalty);
  fold(ar, c.host.jump_penalty);
  fold_cache_config(ar, c.host.icache);
  fold_cache_config(ar, c.host.dcache);
  fold(ar, c.cluster.num_cores);
  fold(ar, c.cluster.tcdm.num_banks);
  fold(ar, c.cluster.tcdm.bank_bytes);
  fold(ar, c.cluster.tcdm.word_bytes);
  fold(ar, c.cluster.icache.private_bytes);
  fold(ar, c.cluster.icache.shared_bytes);
  fold(ar, c.cluster.icache.line_bytes);
  fold(ar, c.cluster.icache.shared_hit_latency);
  fold(ar, c.cluster.icache.l2_fetch_latency);
  fold(ar, c.cluster.core.mul_latency);
  fold(ar, c.cluster.core.div_latency);
  fold(ar, c.cluster.core.fpu_latency);
  fold(ar, c.cluster.core.taken_branch_penalty);
  fold(ar, c.cluster.core.jump_penalty);
  fold(ar, c.cluster.dispatch_latency);
  fold(ar, c.freq.host_mhz);
  fold(ar, c.freq.soc_mhz);
  fold(ar, c.freq.cluster_mhz);
  return ar.hash();
}

void HulkVSoc::visit_sections(
    const std::function<void(u32, const std::function<void(snapshot::Archive&)>&)>&
        visit) {
  using snapshot::Archive;
  visit(snapshot::kHost, [this](Archive& ar) { host_->serialize(ar); });
  visit(snapshot::kCluster, [this](Archive& ar) { cluster_->serialize(ar); });
  if (llc_) {
    visit(snapshot::kLlc, [this](Archive& ar) { llc_->serialize(ar); });
  }
  visit(snapshot::kExtMem, [this](Archive& ar) {
    switch (config_.main_memory) {
      case MainMemoryKind::kHyperRam: hyperram_->serialize(ar); break;
      case MainMemoryKind::kDdr4: ddr4_->serialize(ar); break;
      case MainMemoryKind::kRpcDram: rpcdram_->serialize(ar); break;
    }
  });
  visit(snapshot::kBus, [this](Archive& ar) {
    bus_.serialize(ar);
    l2_timing_.serialize(ar);
    rom_timing_.serialize(ar);
    tcdm_axi_timing_.serialize(ar);
  });
  visit(snapshot::kIopmp, [this](Archive& ar) { iopmp_.serialize(ar); });
  visit(snapshot::kMailbox, [this](Archive& ar) { mailbox_.serialize(ar); });
  visit(snapshot::kPlic, [this](Archive& ar) { plic_.serialize(ar); });
  visit(snapshot::kClint, [this](Archive& ar) { clint_.serialize(ar); });
  visit(snapshot::kUart, [this](Archive& ar) { uart_.serialize(ar); });
  visit(snapshot::kUdma, [this](Archive& ar) { udma_->serialize(ar); });
  visit(snapshot::kPeriphUdma,
        [this](Archive& ar) { periph_udma_->serialize(ar); });
  visit(snapshot::kL2, [this](Archive& ar) { ar.bytes(l2_.data(), l2_.size()); });
  visit(snapshot::kBootRom,
        [this](Archive& ar) { ar.bytes(rom_.data(), rom_.size()); });
  visit(snapshot::kDramPages, [this](Archive& ar) { dram_.serialize(ar); });
}

void HulkVSoc::save(std::ostream& os, const SectionWriterFn& extra) {
  const telemetry::Span span(telemetry::SpanPhase::kSnapshotSave);
  snapshot::Writer writer(os);
  writer.section(snapshot::kMeta, [this](snapshot::Archive& ar) {
    u64 fingerprint = config_fingerprint();
    ar.pod(fingerprint);
  });
  visit_sections([&writer](u32 id, const auto& fn) { writer.section(id, fn); });
  if (extra) extra(writer);
  writer.finish();
}

namespace {

/// Every byte left in `is`.
std::vector<u8> read_to_end(std::istream& is) {
  constexpr u64 kChunk = 64 * 1024;
  std::vector<u8> bytes;
  for (;;) {
    const u64 have = bytes.size();
    bytes.resize(have + kChunk);
    is.read(reinterpret_cast<char*>(bytes.data() + have),
            static_cast<std::streamsize>(kChunk));
    bytes.resize(have + static_cast<u64>(is.gcount()));
    if (!is) break;
  }
  if (is.bad()) throw SimError("snapshot: read failed");
  return bytes;
}

}  // namespace

void HulkVSoc::restore(std::istream& is, const SectionReaderFn& extra) {
  const telemetry::Span span(telemetry::SpanPhase::kSnapshotRestore);
  const std::vector<u8> bytes = read_to_end(is);
  const snapshot::Reader reader(bytes.data(), bytes.size());
  reader.verify_checksum();
  restore_sections(reader, extra);
}

void HulkVSoc::restore(const snapshot::Reader& reader,
                       const SectionReaderFn& extra) {
  const telemetry::Span span(telemetry::SpanPhase::kSnapshotRestore);
  restore_sections(reader, extra);
}

void HulkVSoc::restore_sections(const snapshot::Reader& reader,
                                const SectionReaderFn& extra) {
  reader.section(snapshot::kMeta, [this](snapshot::Archive& ar) {
    u64 fingerprint = 0;
    ar.pod(fingerprint);
    if (fingerprint != config_fingerprint()) {
      throw SimError(
          "snapshot: SoC configuration mismatch (snapshot was taken on a "
          "differently configured SoC)");
    }
  });
  visit_sections([&reader](u32 id, const auto& fn) { reader.section(id, fn); });
  if (extra) extra(reader);
}

u64 HulkVSoc::state_digest() {
  const telemetry::Span span(telemetry::SpanPhase::kSnapshotDigest);
  snapshot::Archive ar = snapshot::Archive::hasher();
  visit_sections([&ar](u32 id, const auto& fn) {
    ar.pod(id);  // delimit sections so state cannot shift between them
    fn(ar);
  });
  return ar.hash();
}

}  // namespace hulkv::core
