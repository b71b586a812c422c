#include "snapshot/archive.hpp"

#include <cstring>

namespace hulkv::snapshot {

void Archive::bytes(void* data, u64 len) {
  switch (mode_) {
    case Mode::kSave:
      out_->insert(out_->end(), static_cast<const u8*>(data),
                   static_cast<const u8*>(data) + len);
      break;
    case Mode::kLoad:
      if (len > in_size_ - in_pos_) {
        throw SimError("snapshot: truncated section (wanted " +
                       std::to_string(len) + " bytes, " +
                       std::to_string(in_size_ - in_pos_) + " left)");
      }
      std::memcpy(data, in_ + in_pos_, len);
      in_pos_ += len;
      break;
    case Mode::kHash:
      hash_ = fnv1a(hash_, data, len);
      break;
  }
}

void Archive::count(u64& n, u64 elem_bytes) {
  pod(n);
  if (loading() && n > remaining() / elem_bytes) {
    throw SimError("snapshot: truncated section (count " +
                   std::to_string(n) + " of " + std::to_string(elem_bytes) +
                   "-byte elements, " + std::to_string(remaining()) +
                   " bytes left)");
  }
}

void Archive::expect_size(u64 got, u64 want, const char* what) const {
  if (loading() && got != want) {
    throw SimError(std::string("snapshot: ") + what + " has " +
                   std::to_string(got) + " entries, the configuration fixes " +
                   std::to_string(want));
  }
}

void Archive::str(std::string& s) {
  u64 len = s.size();
  count(len, 1);
  if (loading()) s.resize(len);
  if (len != 0) bytes(s.data(), len);
}

void Archive::bool_vec(std::vector<bool>& v) {
  u64 n = v.size();
  count(n, 1);
  std::vector<u8> raw(n);
  if (!loading()) {
    for (u64 i = 0; i < n; ++i) raw[i] = v[i] ? 1 : 0;
  }
  if (n != 0) bytes(raw.data(), n);
  if (loading()) {
    v.assign(n, false);
    for (u64 i = 0; i < n; ++i) v[i] = raw[i] != 0;
  }
}

}  // namespace hulkv::snapshot
