#include "host/tlb.hpp"

#include "common/bitutil.hpp"

namespace hulkv::host {

Tlb::Tlb(const TlbConfig& config, PteReader pte_read)
    : config_(config),
      pte_read_(std::move(pte_read)),
      entries_(config.entries),
      stats_("tlb") {
  HULKV_CHECK(config.entries >= 1, "TLB needs entries");
  HULKV_CHECK(static_cast<bool>(pte_read_), "TLB needs a PTE reader");
}

Cycles Tlb::translate(Cycles now, Addr vaddr) {
  const u64 vpn = vaddr / config_.page_bytes;
  stats_.increment("lookups");

  Entry* lru = &entries_[0];
  for (Entry& entry : entries_) {
    if (entry.valid && entry.vpn == vpn) {
      entry.lru = ++use_clock_;
      stats_.increment("hits");
      return now;
    }
    if (entry.lru < lru->lru) lru = &entry;
  }

  // Miss: SV39 walk — one PTE read per level. The synthetic PTE
  // addresses reproduce the locality of a real radix walk: the root
  // level is one line (always hot), deeper levels spread with the VPN.
  stats_.increment("misses");
  Cycles t = now;
  for (u32 level = 0; level < config_.levels; ++level) {
    const u64 index = (vpn >> (9 * (config_.levels - 1 - level))) & 0x1FF;
    const Addr pte_addr =
        kPageTableBase + (static_cast<Addr>(level) << 16) + index * 8;
    t = pte_read_(t, pte_addr);
  }
  stats_.add("walk_cycles", t - now);

  lru->vpn = vpn;
  lru->valid = true;
  lru->lru = ++use_clock_;
  return t;
}

void Tlb::flush() {
  for (Entry& entry : entries_) entry = Entry{};
  stats_.increment("flushes");
}

void Tlb::serialize(snapshot::Archive& ar) {
  ar.pod(use_clock_);
  // Field by field: Entry has padding bytes.
  for (Entry& entry : entries_) {
    ar.pod(entry.vpn);
    ar.pod(entry.lru);
    ar.pod(entry.valid);
  }
  stats_.serialize(ar);
}

double Tlb::hit_ratio() const {
  const u64 lookups = stats_.get("lookups");
  return lookups == 0 ? 0.0
                      : static_cast<double>(stats_.get("hits")) /
                            static_cast<double>(lookups);
}

}  // namespace hulkv::host
