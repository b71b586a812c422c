// JSON string quoting for every JSON writer in the repo (bench reports,
// run manifests, Chrome traces, the analyzer corpus).
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace hulkv {

/// `s` as a JSON string literal, quotes included. Every byte below 0x20
/// is escaped (RFC 8259 forbids them raw); other bytes pass through.
inline std::string json_quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace hulkv
