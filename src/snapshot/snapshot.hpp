// Versioned binary container for full-SoC snapshots (DESIGN.md §11).
//
// Layout:
//
//   u32 magic  'HLKV' (0x564B4C48)
//   u32 format version (kFormatVersion)
//   repeated sections: { u32 id, u64 payload_bytes, payload }
//   end section: { id = kEndMarker, length = 8, u64 fnv1a checksum }
//
// The checksum covers every byte after the 8-byte header up to (but not
// including) the end section, so truncation and corruption are both
// detected with a clear error. It is checked where bytes enter the
// process (HulkVSoc::restore(std::istream&)); a batch::SocSnapshot holds
// only bytes its own Writer checksummed, so its restores do not re-hash
// them (DESIGN.md §11.1). Section ids/lengths let readers skip
// sections they do not understand — a newer writer can add sections
// without breaking an older reader of the same format version.
//
// Writer/Reader are deliberately dumb about content: components produce
// and consume section payloads through snapshot::Archive (archive.hpp);
// HulkVSoc::save()/restore() decide which sections exist (core/soc.cpp)
// and OffloadRuntime appends its own section (runtime/offload.cpp).
#pragma once

#include <functional>
#include <iosfwd>
#include <vector>

#include "snapshot/archive.hpp"

namespace hulkv::snapshot {

inline constexpr u32 kMagic = 0x564B4C48u;  // "HLKV" little-endian
inline constexpr u32 kFormatVersion = 1;

/// Section ids of format version 1. Values are part of the on-disk
/// format: never renumber, only append.
enum SectionId : u32 {
  kEndMarker = 0,   // checksum trailer
  kMeta = 1,        // SoC configuration fingerprint (restore validation)
  kHost = 2,        // CVA6: regs, clock, L1 models, TLBs, stats
  kCluster = 3,     // 8 PMCA cores, TCDM, event unit, DMA, I$, stats
  kLlc = 4,         // LLC tags + stats (absent when the LLC is disabled)
  kExtMem = 5,      // HyperRAM/DDR4/RPC-DRAM device timing state
  kBus = 6,         // crossbar stats + shared SRAM port occupancies
  kIopmp = 7,       // protection regions + enforcing flag
  kMailbox = 8,     // H2C/C2H FIFOs
  kPlic = 9,        // pending/enabled/claimed/priorities
  kClint = 10,      // msip + mtimecmp
  kUart = 11,       // transmitted output
  kUdma = 12,       // HyperRAM-controller uDMA stats
  kPeriphUdma = 13, // peripheral uDMA tx log + stats
  kL2 = 14,         // L2SPM contents
  kBootRom = 15,    // boot ROM contents
  kDramPages = 16,  // sparse external-memory pages (only dirty pages)
  kRuntime = 17,    // OffloadRuntime: arenas, images, hulk_malloc state
};

/// Streams sections to an std::ostream. Usage:
///   Writer w(os);
///   w.section(kHost, [&](Archive& ar) { host.serialize(ar); });
///   ...
///   w.finish();
class Writer {
 public:
  explicit Writer(std::ostream& os);
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Append one section whose payload is produced by `fill` (an Archive
  /// in kSave mode).
  void section(u32 id, const std::function<void(Archive&)>& fill);

  /// Write the checksum trailer. Must be called exactly once, last.
  void finish();

  ~Writer();

 private:
  void emit(const void* data, u64 len, bool checksummed);

  std::ostream& os_;
  u64 checksum_ = kFnvOffset;
  bool finished_ = false;
};

/// Indexes a snapshot held in memory: header, section spans and the
/// checksum trailer. No payload is copied — sections are spans over
/// the caller's bytes, which must outlive the reader — and every
/// section length is checked against the bytes left before it is used.
/// Throws SimError with a specific message on bad magic, version
/// mismatch, truncation, a duplicate section or a malformed trailer.
/// Construction does not hash: verify_checksum() checks the trailer,
/// and HulkVSoc::restore(std::istream&) calls it for bytes that enter
/// from outside the process. Unknown section ids are indexed but
/// ignored.
class Reader {
 public:
  Reader(const u8* data, u64 size);

  /// Recompute the FNV-1a checksum over the sections and compare it
  /// with the trailer; throws SimError("... checksum mismatch ...").
  void verify_checksum() const;

  bool has(u32 id) const { return find(id) != nullptr; }

  /// Consume section `id` with `read` (an Archive in kLoad mode). The
  /// reader insists the payload is consumed exactly — a partial read
  /// means the writer and reader traversals disagree.
  void section(u32 id, const std::function<void(Archive&)>& read) const;

 private:
  struct Section {
    u32 id = 0;
    const u8* data = nullptr;
    u64 size = 0;
  };

  const Section* find(u32 id) const;

  std::vector<Section> sections_;  // file order
  const u8* checksummed_ = nullptr;  // after the header, up to the trailer
  u64 checksummed_size_ = 0;
  u64 stored_checksum_ = 0;
};

/// Human-readable name of a section id (error messages, tooling).
const char* section_name(u32 id);

}  // namespace hulkv::snapshot
