// hulkv-analyze: standalone front-end of the guest-program static
// analyzer (src/analysis/, DESIGN.md §13).
//
// Modes:
//   hulkv-analyze --corpus [--json]      analyze every built-in program
//   hulkv-analyze <name> [--json]        one corpus program, full report
//   hulkv-analyze --image <path> [--profile host|cluster] [--base ADDR]
//                                        raw image: little-endian u32s
//
// Whole-corpus mode prints one summary row per program (or the golden
// JSON document with --json); per-program mode adds the per-block fact
// table, the function summaries, and annotated diagnostics. Exit code
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
#include "common/hex.hpp"
#include "isa/disasm.hpp"
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

/// Per-program detail: report, block fact table, function summaries.
void print_detail(const kernels::CorpusResult& r) {
  const analysis::Report& rep = r.analysis.report;
  const analysis::FactsTable& facts = r.analysis.facts;
  std::printf("== %s ==\n%s", r.entry.name.c_str(),
              rep.to_string().c_str());
  std::printf("\nblocks (reachable %u, pure %u, memory-free %u, "
              "tcdm-local %u, run-ahead eligible %u):\n",
              facts.reachable_blocks(), facts.pure_blocks(),
              facts.memory_free_blocks(), facts.tcdm_local_blocks(),
              facts.eligible_blocks());
  for (const analysis::BlockFacts& b : facts.blocks) {
    std::printf("  [%s, %s) min_cycles=%u%s%s%s%s%s footprint=%s\n",
                ("0x" + hex(b.start)).c_str(), ("0x" + hex(b.end)).c_str(),
                b.min_cycles,
                b.reachable ? "" : " unreachable",
                b.may_access_memory ? " mem" : "",
                b.may_ecall ? " ecall" : "", b.pure ? " pure" : "",
                b.run_ahead_eligible ? " eligible" : "",
                b.footprint.empty()
                    ? "none"
                    : b.footprint.to_string().c_str());
  }
  std::printf("functions (%zu):\n", facts.functions.size());
  for (const analysis::FuncSummary& f : facts.functions) {
    std::printf("  %s: %zu block(s), %zu callee(s)%s%s%s%s%s "
                "footprint=%s\n",
                ("0x" + hex(f.entry)).c_str(), f.blocks.size(),
                f.callees.size(), f.recursive ? " recursive" : "",
                f.has_indirect_call ? " indirect-call" : "",
                f.may_access_memory ? " mem" : "",
                f.may_ecall ? " ecall" : "", f.pure ? " pure" : "",
                f.footprint.empty() ? "none"
                                    : f.footprint.to_string().c_str());
  }
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
      r.analysis = kernels::analyze_corpus_entry(entry);
      if (base_set) {
        // Re-analyze at the requested base with the bare conventions
        // (no load-path entry seeding: the image is foreign).
        analysis::Options options;
        options.base = base;
        options.profile = entry.profile;
        options.pic = entry.profile == analysis::IsaProfile::kClusterRv32;
        r.analysis = analysis::analyze_program(entry.words, options);
      }
      r.entry = std::move(entry);
      if (json) {
        std::fputs(kernels::render_corpus_json({r}).c_str(), stdout);
      } else {
        print_detail(r);
      }
      return r.analysis.report.ok() ? 0 : 1;
    }

    std::vector<kernels::CorpusResult> results =
        kernels::run_corpus_analysis();
    if (!name.empty()) {
      for (const kernels::CorpusResult& r : results) {
        if (r.entry.name == name) {
          if (json) {
            std::fputs(kernels::render_corpus_json({r}).c_str(), stdout);
          } else {
            print_detail(r);
          }
          return r.analysis.report.ok() ? 0 : 1;
        }
      }
      std::fprintf(stderr,
                   "hulkv-analyze: unknown program '%s' (run --corpus "
                   "for the list)\n",
                   name.c_str());
      return 2;
    }
    if (!corpus_mode) return usage();
    std::fputs(json ? kernels::render_corpus_json(results).c_str()
                    : kernels::render_corpus_text(results).c_str(),
               stdout);
    for (const kernels::CorpusResult& r : results) {
      if (!r.analysis.report.ok()) return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hulkv-analyze: %s\n", e.what());
    return 2;
  }
}
