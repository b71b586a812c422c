#include "mem/interconnect.hpp"

#include <cstring>

#include "common/hex.hpp"

namespace hulkv::mem {

namespace {
/// One crossbar hop for the 64-bit AXI4 crossbar: request + response beat.
constexpr Cycles kHostXbarHop = 2;
/// Cluster masters cross the cluster/host clock-domain boundary too.
constexpr Cycles kClusterXbarHop = 6;
constexpr Cycles kUdmaHop = 1;  // uDMA sits next to the controller mux
}  // namespace

SocBus::SocBus() : stats_("soc_bus") {}

void SocBus::set_tcdm(std::vector<u8>* storage, MemTiming* timing) {
  srams_.push_back({map::kTcdmBase, map::kTcdmSize, storage, timing});
}

void SocBus::set_l2(std::vector<u8>* storage, MemTiming* timing) {
  srams_.push_back({map::kL2Base, map::kL2Size, storage, timing});
}

void SocBus::set_boot_rom(std::vector<u8>* storage, MemTiming* timing) {
  srams_.push_back({map::kBootRomBase, map::kBootRomSize, storage, timing});
}

void SocBus::set_dram(BackingStore* store, MemTiming* timing) {
  dram_store_ = store;
  dram_timing_ = timing;
}

void SocBus::add_mmio(Addr base, u64 size, MmioDevice* device,
                      MemTiming* timing) {
  mmios_.push_back({base, size, device, timing});
}

Cycles SocBus::xbar_latency(Master master) const {
  switch (master) {
    case Master::kHost:
    case Master::kClusterDma:
      return master == Master::kHost ? kHostXbarHop : kClusterXbarHop;
    case Master::kClusterCore:
      return kClusterXbarHop;
    case Master::kUdma:
      return kUdmaHop;
  }
  return kHostXbarHop;
}

Cycles SocBus::read(Cycles now, Addr addr, void* dst, u32 bytes,
                    Master master) {
  return transact(now, addr, dst, bytes, /*is_write=*/false, master,
                  /*timed=*/true);
}

Cycles SocBus::write(Cycles now, Addr addr, const void* src, u32 bytes,
                     Master master) {
  return transact(now, addr, const_cast<void*>(src), bytes,
                  /*is_write=*/true, master, /*timed=*/true);
}

void SocBus::read_functional(Addr addr, void* dst, u32 bytes) {
  transact(0, addr, dst, bytes, /*is_write=*/false, Master::kHost,
           /*timed=*/false);
}

void SocBus::write_functional(Addr addr, const void* src, u32 bytes) {
  transact(0, addr, const_cast<void*>(src), bytes, /*is_write=*/true,
           Master::kHost, /*timed=*/false);
}

Cycles SocBus::transact(Cycles now, Addr addr, void* data, u32 bytes,
                        bool is_write, Master master, bool timed) {
  HULKV_CHECK(bytes > 0, "zero-length bus transaction");

  const bool cluster_master =
      master == Master::kClusterCore || master == Master::kClusterDma;
  if (timed && cluster_master && iopmp_ && !iopmp_(addr, bytes, is_write)) {
    throw SimError("IOPMP denied cluster access to 0x" + hex(addr));
  }

  if (timed) {
    stats_.increment(is_write ? "writes" : "reads");
    stats_.add("bytes", bytes);
  }
  const Cycles issue = timed ? now + xbar_latency(master) : now;

  // Flat SRAM targets.
  for (const SramRegion& r : srams_) {
    if (addr >= r.base && addr + bytes <= r.base + r.size) {
      u8* p = r.storage->data() + (addr - r.base);
      if (is_write) {
        std::memcpy(p, data, bytes);
      } else {
        std::memcpy(data, p, bytes);
      }
      return timed ? r.timing->access(issue, addr, bytes, is_write) : now;
    }
  }

  // MMIO windows (register-sized accesses only).
  for (const MmioRegion& r : mmios_) {
    if (addr >= r.base && addr + bytes <= r.base + r.size) {
      HULKV_CHECK(bytes <= 8, "MMIO access wider than a register");
      if (is_write) {
        u64 value = 0;
        std::memcpy(&value, data, bytes);
        r.device->mmio_write(addr - r.base, value, bytes);
      } else {
        const u64 value = r.device->mmio_read(addr - r.base, bytes);
        std::memcpy(data, &value, bytes);
      }
      return timed ? r.timing->access(issue, addr, bytes, is_write) : now;
    }
  }

  // External memory through the LLC path.
  if (addr >= map::kDramBase && addr + bytes <= map::kDramBase + map::kDramSize) {
    HULKV_CHECK(dram_store_ != nullptr, "no external memory attached");
    if (is_write) {
      dram_store_->write(addr, data, bytes);
    } else {
      dram_store_->read(addr, data, bytes);
    }
    return timed ? dram_timing_->access(issue, addr, bytes, is_write) : now;
  }

  throw SimError("bus access to unmapped address 0x" + hex(addr));
}

}  // namespace hulkv::mem
