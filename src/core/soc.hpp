// HULK-V SoC top level (paper figure 1): the primary contribution of the
// paper — a Linux-capable 64-bit host coupled with an 8-core DSP cluster
// over a lightweight, fully digital memory hierarchy (HyperRAM + LLC).
//
// This class wires every block of the SoC and is the main entry point of
// the library: construct a HulkVSoc from a SocConfig, load programs,
// run the host, offload kernels to the PMCA (normally through
// runtime::OffloadRuntime), and read back the per-block statistics that
// the benches convert into the paper's tables and figures.
//
// The four memory configurations the evaluation sweeps (section VI-B) are
// expressed directly in SocConfig: {HyperRAM, DDR4} x {LLC on, LLC off}.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/iopmp.hpp"
#include "core/mailbox.hpp"
#include "host/clint.hpp"
#include "host/cva6.hpp"
#include "host/periph_udma.hpp"
#include "host/uart.hpp"
#include "host/plic.hpp"
#include "mem/ddr.hpp"
#include "mem/hyperram.hpp"
#include "mem/llc.hpp"
#include "mem/rpcdram.hpp"
#include "mem/udma.hpp"
#include "snapshot/snapshot.hpp"

namespace hulkv::batch {
class SocSnapshot;
}  // namespace hulkv::batch

namespace hulkv::core {

/// Which external-memory device backs the 0x8000_0000 window.
enum class MainMemoryKind { kHyperRam, kDdr4, kRpcDram };

/// Frequency plan used to convert cycle counts into seconds/GOps — the
/// per-domain maximum frequencies of Table II (the simulator itself runs
/// a single clock, exactly like the paper's FPGA emulation; see
/// DESIGN.md section 4).
struct FrequencyPlan {
  double host_mhz = 900.0;     // CVA6
  double soc_mhz = 450.0;      // host domain / LLC / memory controller
  double cluster_mhz = 400.0;  // PMCA
};

struct SocConfig {
  MainMemoryKind main_memory = MainMemoryKind::kHyperRam;
  bool enable_llc = true;
  mem::HyperRamConfig hyperram;
  mem::DdrConfig ddr;
  mem::RpcDramConfig rpcdram;
  mem::LlcConfig llc;
  host::Cva6Config host;
  cluster::ClusterConfig cluster;
  FrequencyPlan freq;
};

/// APB sub-map (inside mem::map::kApbBase).
namespace apbmap {
inline constexpr Addr kClintBase = 0x1A10'0000ull;
inline constexpr u64 kClintSize = 64 * 1024;
inline constexpr Addr kPlicBase = 0x1A14'0000ull;
inline constexpr u64 kPlicSize = 256 * 1024;
inline constexpr Addr kMailboxBase = 0x1A18'0000ull;
inline constexpr u64 kMailboxSize = 4 * 1024;
inline constexpr Addr kUartBase = 0x1A19'0000ull;
inline constexpr u64 kUartSize = 4 * 1024;
}  // namespace apbmap

/// PLIC interrupt source of the cluster->host mailbox.
inline constexpr u32 kMailboxIrqSource = 1;
/// PLIC interrupt source of the peripheral uDMA (I2S/CPI/SPI streams).
inline constexpr u32 kPeriphIrqSource = 2;

/// Software layout of the external-memory window (what the Linux kernel
/// would establish): host program text + stacks live in the first 16 MB;
/// the hulk_malloc() shared region (runtime/hulk_malloc.hpp) covers the
/// rest and stays fully 32-bit addressable for the PMCA.
namespace layout {
inline constexpr Addr kHostCodeBase = mem::map::kDramBase + 0x10'0000;
inline constexpr Addr kHostStackTop = mem::map::kDramBase + 0x100'0000;
inline constexpr Addr kSharedBase = mem::map::kDramBase + 0x100'0000;
inline constexpr u64 kSharedSize = mem::map::kDramSize - 0x100'0000;
}  // namespace layout

class HulkVSoc {
 public:
  explicit HulkVSoc(const SocConfig& config = {});

  // ---- blocks ----
  host::Cva6Core& host() { return *host_; }
  cluster::Cluster& cluster() { return *cluster_; }
  mem::SocBus& bus() { return bus_; }
  mem::Udma& udma() { return *udma_; }
  Mailbox& mailbox() { return mailbox_; }
  host::Plic& plic() { return plic_; }
  host::Uart& uart() { return uart_; }
  host::PeriphUdma& periph_udma() { return *periph_udma_; }
  host::Clint& clint() { return clint_; }
  Iopmp& iopmp() { return iopmp_; }

  /// LLC (nullptr when disabled by config).
  mem::Llc* llc() { return llc_.get(); }
  /// The raw external-memory device (HyperRAM or DDR4 model).
  mem::MemTiming& ext_mem() { return *ext_mem_; }
  mem::HyperRamModel* hyperram() { return hyperram_.get(); }
  mem::Ddr4Model* ddr4() { return ddr4_.get(); }
  mem::RpcDramModel* rpcdram() { return rpcdram_.get(); }

  const SocConfig& config() const { return config_; }

  // ---- program / data loading ----

  /// Place encoded instructions at `base` (any mapped region).
  void load_program(Addr base, const std::vector<u32>& words);

  /// Functional bulk copy helpers.
  void write_mem(Addr addr, const void* src, u64 bytes);
  void read_mem(Addr addr, void* dst, u64 bytes);

  // ---- checkpoint / restore (src/snapshot, DESIGN.md section 11) ----

  /// Callback appending extra sections before the trailer (e.g.
  /// runtime::OffloadRuntime adds its kRuntime section).
  using SectionWriterFn = std::function<void(snapshot::Writer&)>;
  /// Callback consuming extra sections after the SoC ones.
  using SectionReaderFn = std::function<void(const snapshot::Reader&)>;

  /// Serialize the complete SoC state (architectural + timing-model) in
  /// the versioned snapshot container format.
  void save(std::ostream& os, const SectionWriterFn& extra = nullptr);

  /// Restore state previously written by save() into this SoC. The SoC
  /// must have been built from the same configuration (validated via
  /// the kMeta fingerprint; throws SimError otherwise). Restore is
  /// exact: the restored SoC continues cycle-identically to the saved
  /// one. Reads `is` to its end and verifies the checksum trailer
  /// before any component state is touched: this is where snapshot
  /// bytes enter from outside the process.
  void restore(std::istream& is, const SectionReaderFn& extra = nullptr);

  /// FNV-1a digest over the same traversal save() uses — a cheap
  /// whole-SoC state-equality check.
  u64 state_digest();

  /// Return to freshly-constructed state: state_digest() afterwards
  /// equals that of a new HulkVSoc with the same config.
  void reset();

  /// Fingerprint of the construction-time configuration (stored in the
  /// snapshot's kMeta section and checked on restore).
  u64 config_fingerprint() const;

  /// The same fingerprint computed from a bare configuration — lets
  /// callers (e.g. the serve result cache) derive cache keys without
  /// constructing a SoC. config_fingerprint() delegates here.
  static u64 fingerprint_of(const SocConfig& config);

 private:
  /// One place enumerating every (section id, component traversal)
  /// pair; save/restore/state_digest all walk this table so they can
  /// never drift apart.
  void visit_sections(
      const std::function<void(u32, const std::function<void(snapshot::Archive&)>&)>&
          visit);

  /// Restore from a snapshot already indexed in memory, without
  /// re-hashing it. Only batch::SocSnapshot reaches it, and it holds
  /// only bytes that its own capture() wrote, whose Writer computed the
  /// trailer over exactly those bytes.
  friend class batch::SocSnapshot;
  void restore(const snapshot::Reader& reader, const SectionReaderFn& extra);

  /// The kMeta check, every visit_sections() section, then `extra`.
  void restore_sections(const snapshot::Reader& reader,
                        const SectionReaderFn& extra);

  /// IOPMP grants established at construction (re-applied by reset()).
  void grant_default_iopmp();

  SocConfig config_;

  // Functional storage.
  mem::BackingStore dram_;
  std::vector<u8> l2_;
  std::vector<u8> rom_;

  // Timing models.
  std::unique_ptr<mem::HyperRamModel> hyperram_;
  std::unique_ptr<mem::Ddr4Model> ddr4_;
  std::unique_ptr<mem::RpcDramModel> rpcdram_;
  mem::MemTiming* ext_mem_ = nullptr;
  std::unique_ptr<mem::Llc> llc_;
  mem::SramTiming l2_timing_{1, 8};
  mem::SramTiming rom_timing_{1, 8};
  mem::SramTiming tcdm_axi_timing_{2, 8};  // host-side view of the TCDM
  mem::FixedLatency apb_timing_{4};

  mem::SocBus bus_;
  Iopmp iopmp_;
  Mailbox mailbox_;
  host::Plic plic_;
  host::Clint clint_;
  host::Uart uart_;

  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<host::Cva6Core> host_;
  std::unique_ptr<mem::Udma> udma_;
  std::unique_ptr<host::PeriphUdma> periph_udma_;
};

}  // namespace hulkv::core
