// The analysis corpus: every built-in kernel and host program at a
// fixed small shape, each with the analysis options it is checked
// under. Three consumers share the list:
//
//  * tools/hulkv_analyze.cpp — the `hulkv-analyze` CLI (whole-corpus
//    mode and per-program reports),
//  * tests/analysis_test.cc — pins the whole-corpus JSON against
//    tests/golden/analyze_corpus.json,
//  * scripts/ci.sh — the analyze-corpus step, which diffs the tool's
//    JSON against that golden and fails on the tool's exit code.
//
// What the corpus checks is each program's diagnostics under fixed
// conventions. They are close to the load paths' but not the same:
//
//  * cluster kernels are analyzed PIC at base 0 with the offload
//    runtime's entry values (a0 = argument block, sp in the TCDM stack
//    window of the default 8-core cluster), but without IOPMP grant
//    windows, so no iopmp-denied finding can show here, while
//    OffloadRuntime::register_kernel checks against the SoC's IOPMP;
//  * host programs are analyzed non-PIC at the host load base with sp
//    seeded and the default entry registers a0-a5 defined, while
//    kernels::prepare_host_program defines only the arguments it is
//    passed.
//
// The options stay as they are: changing them would move the golden
// diagnostics. Shapes are deliberately tiny, which keeps the golden
// file and the CI step fast.
#pragma once

#include <string>
#include <vector>

#include "analysis/analyzer.hpp"

namespace hulkv::kernels {

struct CorpusEntry {
  std::string name;
  analysis::IsaProfile profile = analysis::IsaProfile::kClusterRv32;
  std::vector<u32> words;
};

/// Every built-in program at its corpus shape, cluster kernels first,
/// in a fixed order (the golden file depends on it).
std::vector<CorpusEntry> analysis_corpus();

/// Analyze one entry under the corpus conventions above.
analysis::Report analyze_corpus_entry(const CorpusEntry& entry);

/// One analyzed entry, as the renderers below take it.
struct CorpusResult {
  CorpusEntry entry;
  analysis::Report report;
};

/// Analyze the whole corpus in order.
std::vector<CorpusResult> run_corpus_analysis();

/// Aligned text table (one row per program) plus any diagnostics.
std::string render_corpus_text(const std::vector<CorpusResult>& results);

/// Deterministic JSON document (stable key order, corpus order) — the
/// golden-file and CI currency.
std::string render_corpus_json(const std::vector<CorpusResult>& results);

}  // namespace hulkv::kernels
