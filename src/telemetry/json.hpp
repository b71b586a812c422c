// Minimal JSON reader (hulkv::telemetry::json).
//
// The repo's writers (report::MetricsReport, the telemetry manifest)
// emit JSON; this is the matching reader so tools/hulkv-stats can
// aggregate and schema-check those files without external
// dependencies. A straightforward recursive-descent DOM parser:
// complete JSON value grammar (RFC 8259), objects keep insertion
// order, numbers keep both a double view and the raw text (so exact
// integer comparisons survive round-trips). Not a streaming parser —
// manifests and bench JSONs are small.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace hulkv::telemetry::json {

class Value;
using Array = std::vector<Value>;
/// Insertion-ordered object (diff output follows writer order).
using Object = std::vector<std::pair<std::string, Value>>;

enum class Kind : u8 { kNull, kBool, kNumber, kString, kArray, kObject };

const char* kind_name(Kind kind);

class Value {
 public:
  Value() = default;  // null

  Kind kind() const { return kind_; }
  bool is(Kind k) const { return kind_ == k; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  /// The exact token text of a number ("3.14", "42").
  const std::string& raw_number() const { return string_; }
  const std::string& as_string() const { return string_; }
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member by key, or nullptr (also nullptr on non-objects).
  const Value* find(std::string_view key) const;
  /// Nested lookup along '.'-separated keys ("host.hostname").
  const Value* find_path(std::string_view path) const;

  static Value make_null() { return Value(); }
  static Value make_bool(bool b);
  static Value make_number(double n, std::string raw);
  static Value make_string(std::string s);
  static Value make_array(Array a);
  static Value make_object(Object o);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;  // string value, or raw number text
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

/// Parse one complete JSON document. Throws SimError with position
/// information on malformed input or trailing garbage.
Value parse(std::string_view text);

/// Parse JSON-lines: one document per non-empty line.
std::vector<Value> parse_lines(std::string_view text);

}  // namespace hulkv::telemetry::json
