// Shared command-line parsing (hulkv::cli).
//
// One declarative flag table serves every binary in the repo: the 8
// bench binaries (via report::bench_args_or_exit — both `--flag value`
// and `--flag=value` spellings, optional-value flags that never
// consume the next argument, unknown flags an error except where
// simperf passes them through to google-benchmark) and the serve
// daemon/load generator (a typo'd flag is a hard error, not a silently
// ignored one, plus a generated usage text).
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace hulkv::cli {

class Parser {
 public:
  /// `program` names the binary in usage/error text; `summary` is the
  /// one-line description printed above the flag list.
  explicit Parser(std::string program, std::string summary = "");

  // Value-taking flags: accept `--flag value` and `--flag=value`.
  Parser& add_string(const std::string& flag, std::string* out,
                     std::string help);
  Parser& add_u32(const std::string& flag, u32* out, std::string help);
  Parser& add_u64(const std::string& flag, u64* out, std::string help);
  Parser& add_double(const std::string& flag, double* out, std::string help);

  /// Presence flag: bare `--flag` sets *out = true (no value form).
  Parser& add_flag(const std::string& flag, bool* out, std::string help);

  /// Optional-value flag (the --profile / --telemetry shape): bare
  /// `--flag` sets *present; `--flag=value` additionally stores the
  /// value. The bare form never consumes the next argument.
  Parser& add_optional_value(const std::string& flag, bool* present,
                             std::string* value, std::string help);

  enum class OnUnknown : u8 {
    kIgnore,  // benches: unknown flags belong to a wrapped tool
    kError,   // tools: unknown flags are a usage error
  };

  /// Parse argv[1..]. Returns true on success; on failure error() holds
  /// a one-line description (bad number, missing value — a value flag
  /// at the end or followed by another `--` flag — or an unknown flag
  /// under kError). Throws nothing — callers decide whether a parse
  /// failure is fatal.
  bool parse(int argc, char** argv, OnUnknown policy = OnUnknown::kError);

  const std::string& error() const { return error_; }

  /// Generated usage text: "usage: <program> [flags]" plus one aligned
  /// line per registered flag.
  std::string usage() const;

 private:
  enum class Kind : u8 { kString, kU32, kU64, kDouble, kBool, kOptional };

  struct Option {
    std::string flag;
    std::string help;
    Kind kind;
    std::string* str = nullptr;
    u32* u32v = nullptr;
    u64* u64v = nullptr;
    double* dbl = nullptr;
    bool* boolean = nullptr;
  };

  Parser& add(Option opt);
  bool apply_value(const Option& opt, const std::string& value);

  std::string program_;
  std::string summary_;
  std::vector<Option> options_;
  std::string error_;
};

}  // namespace hulkv::cli
