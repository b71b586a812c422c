// hulkv-analyze: standalone front-end of the guest-program static
// analyzer (src/analysis/, DESIGN.md §13).
//
// Modes:
//   hulkv-analyze --corpus [--json]      analyze every built-in program
//   hulkv-analyze <name> [--json]        one corpus program, full report
//   hulkv-analyze --image <path> [--profile host|cluster] [--base ADDR]
//                                        raw image: little-endian u32s
//
// Whole-corpus mode prints one summary row per program, then every
// diagnostic (or the golden JSON document with --json); per-program
// mode prints that program's diagnostics and summary line. Exit code
// is 0 when no analyzed program has error-severity diagnostics, 1
// otherwise (so CI can gate on it), 2 on usage errors.
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "kernels/corpus.hpp"

namespace {

using namespace hulkv;

int usage() {
  std::fprintf(stderr,
               "usage: hulkv-analyze --corpus [--json]\n"
               "       hulkv-analyze <program-name> [--json]\n"
               "       hulkv-analyze --image <path> [--profile "
               "host|cluster] [--base ADDR] [--json]\n"
               "`hulkv-analyze --corpus` lists the program names.\n");
  return 2;
}

/// A usage error naming the bad argument, then the usage text.
int usage_error(const std::string& message) {
  std::fprintf(stderr, "hulkv-analyze: %s\n", message.c_str());
  return usage();
}

/// The whole of `text` as an unsigned number: decimal, 0x hex or 0
/// octal. No sign, no spaces, no trailing characters.
bool parse_address(const std::string& text, u64* out) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

/// One program's output: its JSON document, or its name and then its
/// report. Returns the exit code.
int print_one(const kernels::CorpusResult& r, bool json) {
  if (json) {
    std::fputs(kernels::render_corpus_json({r}).c_str(), stdout);
  } else {
    std::printf("== %s ==\n%s\n", r.entry.name.c_str(),
                r.report.to_string().c_str());
  }
  return r.report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool corpus_mode = false;
  bool json = false;
  std::string name;
  std::string image_path;
  std::string profile = "cluster";
  u64 base = 0;
  bool base_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corpus") {
      corpus_mode = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--image" && i + 1 < argc) {
      image_path = argv[++i];
    } else if (arg == "--profile" && i + 1 < argc) {
      profile = argv[++i];
    } else if (arg == "--base" && i + 1 < argc) {
      const std::string value = argv[++i];
      if (!parse_address(value, &base)) {
        return usage_error("--base expects an unsigned number, got \"" +
                           value + "\"");
      }
      base_set = true;
    } else if (!arg.empty() && arg[0] != '-' && name.empty()) {
      name = arg;
    } else {
      return usage_error("unexpected argument \"" + arg + "\"");
    }
  }
  if (profile != "host" && profile != "cluster") {
    return usage_error("--profile expects host or cluster, got \"" +
                       profile + "\"");
  }

  try {
    if (!image_path.empty()) {
      std::ifstream in(image_path, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "hulkv-analyze: cannot open '%s'\n",
                     image_path.c_str());
        return 2;
      }
      std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>()};
      if (bytes.empty() || bytes.size() % 4 != 0) {
        std::fprintf(stderr,
                     "hulkv-analyze: image must be a non-empty multiple "
                     "of 4 bytes\n");
        return 2;
      }
      std::vector<u32> words(bytes.size() / 4);
      std::memcpy(words.data(), bytes.data(), bytes.size());
      kernels::CorpusEntry entry;
      entry.name = image_path;
      entry.words = std::move(words);
      if (profile == "host") entry.profile = analysis::IsaProfile::kHostRv64;
      kernels::CorpusResult r;
      if (base_set) {
        // The bare conventions at the requested base (no load-path
        // entry seeding: the image is foreign).
        analysis::Options options;
        options.base = base;
        options.profile = entry.profile;
        options.pic = entry.profile == analysis::IsaProfile::kClusterRv32;
        r.report = analysis::analyze(entry.words, options);
      } else {
        r.report = kernels::analyze_corpus_entry(entry);
      }
      r.entry = std::move(entry);
      return print_one(r, json);
    }

    if (!name.empty()) {
      for (kernels::CorpusEntry& entry : kernels::analysis_corpus()) {
        if (entry.name != name) continue;
        kernels::CorpusResult r;
        r.report = kernels::analyze_corpus_entry(entry);
        r.entry = std::move(entry);
        return print_one(r, json);
      }
      std::fprintf(stderr,
                   "hulkv-analyze: unknown program '%s' (run --corpus "
                   "for the list)\n",
                   name.c_str());
      return 2;
    }
    if (!corpus_mode) return usage();
    const std::vector<kernels::CorpusResult> results =
        kernels::run_corpus_analysis();
    std::fputs(json ? kernels::render_corpus_json(results).c_str()
                    : kernels::render_corpus_text(results).c_str(),
               stdout);
    for (const kernels::CorpusResult& r : results) {
      if (!r.report.ok()) return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hulkv-analyze: %s\n", e.what());
    return 2;
  }
}
