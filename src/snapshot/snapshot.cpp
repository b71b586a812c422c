#include "snapshot/snapshot.hpp"

#include <cstring>
#include <ostream>

namespace hulkv::snapshot {

namespace {

struct SectionHeader {
  u32 id = 0;
  u64 length = 0;
};

}  // namespace

Writer::Writer(std::ostream& os) : os_(os) {
  const u32 magic = kMagic;
  const u32 version = kFormatVersion;
  emit(&magic, sizeof(magic), /*checksummed=*/false);
  emit(&version, sizeof(version), /*checksummed=*/false);
}

void Writer::emit(const void* data, u64 len, bool checksummed) {
  os_.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(len));
  if (!os_) throw SimError("snapshot: write failed");
  if (checksummed) checksum_ = fnv1a(checksum_, data, len);
}

void Writer::section(u32 id, const std::function<void(Archive&)>& fill) {
  HULKV_CHECK(!finished_, "snapshot writer already finished");
  HULKV_CHECK(id != kEndMarker, "kEndMarker is reserved for the trailer");
  std::vector<u8> payload;
  Archive ar = Archive::saver(&payload);
  fill(ar);
  const SectionHeader header{id, payload.size()};
  emit(&header.id, sizeof(header.id), true);
  emit(&header.length, sizeof(header.length), true);
  if (!payload.empty()) emit(payload.data(), payload.size(), true);
}

void Writer::finish() {
  HULKV_CHECK(!finished_, "snapshot writer already finished");
  finished_ = true;
  const SectionHeader header{kEndMarker, sizeof(u64)};
  emit(&header.id, sizeof(header.id), false);
  emit(&header.length, sizeof(header.length), false);
  emit(&checksum_, sizeof(checksum_), false);
  os_.flush();
}

Writer::~Writer() {
  // finish() throws on I/O errors, so it cannot run in the destructor;
  // forgetting it is a caller bug that restore would detect (truncated
  // snapshot), not silent corruption.
}

Reader::Reader(const u8* data, u64 size) {
  u64 pos = 0;
  const auto take = [&](void* dst, u64 len, const char* what) {
    if (len > size - pos) {
      throw SimError(std::string("snapshot: truncated file while reading ") +
                     what);
    }
    std::memcpy(dst, data + pos, len);
    pos += len;
  };

  u32 magic = 0;
  u32 version = 0;
  take(&magic, sizeof(magic), "magic");
  if (magic != kMagic) {
    throw SimError("snapshot: bad magic (not a HULK-V snapshot file)");
  }
  take(&version, sizeof(version), "format version");
  if (version != kFormatVersion) {
    throw SimError("snapshot: unsupported format version " +
                   std::to_string(version) + " (this build reads version " +
                   std::to_string(kFormatVersion) + ")");
  }

  const u64 body_start = pos;
  for (;;) {
    const u64 header_pos = pos;
    SectionHeader header;
    take(&header.id, sizeof(header.id), "section header");
    take(&header.length, sizeof(header.length), "section header");
    if (header.id == kEndMarker) {
      if (header.length != sizeof(u64)) {
        throw SimError("snapshot: malformed end section");
      }
      take(&stored_checksum_, sizeof(stored_checksum_), "checksum");
      checksummed_ = data + body_start;
      checksummed_size_ = header_pos - body_start;
      return;
    }
    if (header.length > size - pos) {
      throw SimError(std::string("snapshot: truncated file while reading ") +
                     section_name(header.id) + " (section claims " +
                     std::to_string(header.length) + " bytes, " +
                     std::to_string(size - pos) + " left)");
    }
    if (find(header.id) != nullptr) {
      throw SimError(std::string("snapshot: duplicate section ") +
                     section_name(header.id));
    }
    sections_.push_back({header.id, data + pos, header.length});
    pos += header.length;
  }
}

void Reader::verify_checksum() const {
  if (fnv1a(kFnvOffset, checksummed_, checksummed_size_) != stored_checksum_) {
    throw SimError("snapshot: checksum mismatch (corrupted file)");
  }
}

const Reader::Section* Reader::find(u32 id) const {
  for (const Section& s : sections_) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

void Reader::section(u32 id,
                     const std::function<void(Archive&)>& read) const {
  const Section* s = find(id);
  if (s == nullptr) {
    throw SimError(std::string("snapshot: missing section ") +
                   section_name(id));
  }
  Archive ar = Archive::loader(s->data, s->size);
  read(ar);
  if (ar.remaining() != 0) {
    throw SimError(std::string("snapshot: section ") + section_name(id) +
                   " not fully consumed (" + std::to_string(ar.remaining()) +
                   " bytes left) — writer/reader mismatch");
  }
}

const char* section_name(u32 id) {
  switch (id) {
    case kEndMarker: return "end";
    case kMeta: return "meta";
    case kHost: return "host";
    case kCluster: return "cluster";
    case kLlc: return "llc";
    case kExtMem: return "ext_mem";
    case kBus: return "bus";
    case kIopmp: return "iopmp";
    case kMailbox: return "mailbox";
    case kPlic: return "plic";
    case kClint: return "clint";
    case kUart: return "uart";
    case kUdma: return "udma";
    case kPeriphUdma: return "periph_udma";
    case kL2: return "l2";
    case kBootRom: return "boot_rom";
    case kDramPages: return "dram_pages";
    case kRuntime: return "runtime";
    default: return "unknown";
  }
}

}  // namespace hulkv::snapshot
