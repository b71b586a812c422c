#include "common/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <string_view>

namespace hulkv::cli {

Parser::Parser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

Parser& Parser::add(Option opt) {
  options_.push_back(std::move(opt));
  return *this;
}

Parser& Parser::add_string(const std::string& flag, std::string* out,
                           std::string help) {
  Option o;
  o.flag = flag;
  o.help = std::move(help);
  o.kind = Kind::kString;
  o.str = out;
  return add(std::move(o));
}

Parser& Parser::add_u32(const std::string& flag, u32* out,
                        std::string help) {
  Option o;
  o.flag = flag;
  o.help = std::move(help);
  o.kind = Kind::kU32;
  o.u32v = out;
  return add(std::move(o));
}

Parser& Parser::add_u64(const std::string& flag, u64* out,
                        std::string help) {
  Option o;
  o.flag = flag;
  o.help = std::move(help);
  o.kind = Kind::kU64;
  o.u64v = out;
  return add(std::move(o));
}

Parser& Parser::add_double(const std::string& flag, double* out,
                           std::string help) {
  Option o;
  o.flag = flag;
  o.help = std::move(help);
  o.kind = Kind::kDouble;
  o.dbl = out;
  return add(std::move(o));
}

Parser& Parser::add_flag(const std::string& flag, bool* out,
                         std::string help) {
  Option o;
  o.flag = flag;
  o.help = std::move(help);
  o.kind = Kind::kBool;
  o.boolean = out;
  return add(std::move(o));
}

Parser& Parser::add_optional_value(const std::string& flag, bool* present,
                                   std::string* value, std::string help) {
  Option o;
  o.flag = flag;
  o.help = std::move(help);
  o.kind = Kind::kOptional;
  o.boolean = present;
  o.str = value;
  return add(std::move(o));
}

bool Parser::apply_value(const Option& opt, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  // strtoul/strtoull skip blanks and accept a sign ("-1" wraps to the
  // maximum), so an unsigned value must start with a digit.
  const bool digit_first =
      !value.empty() && value[0] >= '0' && value[0] <= '9';
  switch (opt.kind) {
    case Kind::kString:
    case Kind::kOptional:
      *opt.str = value;
      return true;
    case Kind::kU32: {
      const unsigned long v = std::strtoul(value.c_str(), &end, 10);
      if (!digit_first || *end != '\0' || errno != 0 || v > ~u32{0}) {
        error_ = program_ + ": " + opt.flag +
                 " expects an unsigned integer, got \"" + value + "\"";
        return false;
      }
      *opt.u32v = static_cast<u32>(v);
      return true;
    }
    case Kind::kU64: {
      const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
      if (!digit_first || *end != '\0' || errno != 0) {
        error_ = program_ + ": " + opt.flag +
                 " expects an unsigned integer, got \"" + value + "\"";
        return false;
      }
      *opt.u64v = v;
      return true;
    }
    case Kind::kDouble: {
      const double v = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || errno != 0) {
        error_ = program_ + ": " + opt.flag + " expects a number, got \"" +
                 value + "\"";
        return false;
      }
      *opt.dbl = v;
      return true;
    }
    case Kind::kBool:
      break;  // unreachable: presence flags never carry a value
  }
  error_ = program_ + ": " + opt.flag + " does not take a value";
  return false;
}

bool Parser::parse(int argc, char** argv, OnUnknown policy) {
  error_.clear();
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const Option* matched = nullptr;
    bool has_inline = false;
    std::string inline_value;
    for (const Option& opt : options_) {
      if (arg == opt.flag) {
        matched = &opt;
        break;
      }
      // --flag=value spelling (an empty value after '=' is legal).
      if (arg.size() > opt.flag.size() &&
          arg.substr(0, opt.flag.size()) == opt.flag &&
          arg[opt.flag.size()] == '=') {
        matched = &opt;
        has_inline = true;
        inline_value = std::string(arg.substr(opt.flag.size() + 1));
        break;
      }
    }
    if (matched == nullptr) {
      if (policy == OnUnknown::kError) {
        error_ = program_ + ": unknown flag \"" + std::string(arg) + "\"";
        return false;
      }
      continue;  // wrapped tool's flag (e.g. google-benchmark)
    }
    switch (matched->kind) {
      case Kind::kBool:
        if (has_inline) {
          error_ = program_ + ": " + matched->flag + " does not take a value";
          return false;
        }
        *matched->boolean = true;
        break;
      case Kind::kOptional:
        // Bare form must not consume the next argument (a bench's
        // `--profile --json out.json` would otherwise eat --json).
        *matched->boolean = true;
        if (has_inline && !apply_value(*matched, inline_value)) return false;
        break;
      default:
        if (!has_inline) {
          // A value flag must not swallow the next flag: `--json
          // --jobs 2` is a missing value, not a file named "--jobs".
          if (i + 1 >= argc ||
              std::string_view(argv[i + 1]).substr(0, 2) == "--") {
            error_ = program_ + ": " + matched->flag + " expects a value";
            return false;
          }
          inline_value = argv[++i];
        }
        if (!apply_value(*matched, inline_value)) return false;
        break;
    }
  }
  return true;
}

std::string Parser::usage() const {
  std::ostringstream os;
  os << "usage: " << program_ << " [flags]\n";
  if (!summary_.empty()) os << summary_ << "\n";
  size_t width = 0;
  for (const Option& opt : options_) {
    size_t w = opt.flag.size();
    if (opt.kind == Kind::kOptional) w += 8;           // "[=VALUE]"
    else if (opt.kind != Kind::kBool) w += 6;          // " VALUE"
    width = std::max(width, w);
  }
  for (const Option& opt : options_) {
    std::string spelled = opt.flag;
    if (opt.kind == Kind::kOptional) spelled += "[=VALUE]";
    else if (opt.kind != Kind::kBool) spelled += " VALUE";
    os << "  " << spelled
       << std::string(width + 2 - spelled.size(), ' ') << opt.help << "\n";
  }
  return os.str();
}

}  // namespace hulkv::cli
