// Hex formatting for diagnostics (addresses and pcs in error messages).
#pragma once

#include <cstdio>
#include <string>

#include "common/types.hpp"

namespace hulkv {

/// Lower-case hex digits of `value` without a prefix; callers write the
/// "0x" themselves.
inline std::string hex(u64 value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace hulkv
