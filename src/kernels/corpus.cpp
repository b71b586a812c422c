#include "kernels/corpus.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/json_quote.hpp"
#include "core/soc.hpp"
#include "kernels/cluster_kernels.hpp"
#include "kernels/host_kernels.hpp"
#include "kernels/iot_benchmarks.hpp"

namespace hulkv::kernels {

namespace {

/// Cores assumed for the cluster sp window (the default PMCA team).
constexpr u32 kCorpusCores = 8;

void add(std::vector<CorpusEntry>& corpus, analysis::IsaProfile profile,
         const KernelProgram& program) {
  // Program names alone collide across paths/precisions ("matmul" is
  // four programs): qualify with the path and the precision.
  const bool cluster = profile == analysis::IsaProfile::kClusterRv32;
  corpus.push_back({std::string(cluster ? "cluster/" : "host/") +
                        program.name + "." +
                        std::string(precision_name(program.precision)),
                    profile, program.words});
}

}  // namespace

std::vector<CorpusEntry> analysis_corpus() {
  using analysis::IsaProfile;
  std::vector<CorpusEntry> corpus;
  // Cluster kernels (offload path, XpulpV2).
  add(corpus, IsaProfile::kClusterRv32, cluster_matmul_i8(8, 8, 8));
  add(corpus, IsaProfile::kClusterRv32, cluster_matmul_i32(8, 8, 8));
  add(corpus, IsaProfile::kClusterRv32, cluster_matmul_f16(8, 8, 8));
  add(corpus, IsaProfile::kClusterRv32, cluster_conv3x3_i8(8, 8));
  add(corpus, IsaProfile::kClusterRv32, cluster_fir_i8(64, 8));
  add(corpus, IsaProfile::kClusterRv32, cluster_axpy_f32(64));
  add(corpus, IsaProfile::kClusterRv32, cluster_axpy_f16(64));
  add(corpus, IsaProfile::kClusterRv32, cluster_relu_i8(64));
  add(corpus, IsaProfile::kClusterRv32, cluster_dotp_f16(64));
  // Host compute kernels (run_host_program path, RV64).
  add(corpus, IsaProfile::kHostRv64, host_matmul_i32(8, 8, 8));
  add(corpus, IsaProfile::kHostRv64, host_conv3x3_i32(8, 8));
  add(corpus, IsaProfile::kHostRv64, host_fir_i32(64, 8));
  add(corpus, IsaProfile::kHostRv64, host_matmul_f32(8, 8, 8));
  add(corpus, IsaProfile::kHostRv64, host_axpy_f32(64));
  add(corpus, IsaProfile::kHostRv64, host_dotp_f32(64));
  // IoT benchmarks (sections VI-B/C).
  add(corpus, IsaProfile::kHostRv64, host_crc32(256));
  add(corpus, IsaProfile::kHostRv64, host_shell_sort(64));
  add(corpus, IsaProfile::kHostRv64, host_histogram(256));
  add(corpus, IsaProfile::kHostRv64, host_strsearch(256, 8));
  add(corpus, IsaProfile::kHostRv64, host_dhrystone_mix(4));
  add(corpus, IsaProfile::kHostRv64, host_stride_reads(64, 64, 2));
  add(corpus, IsaProfile::kHostRv64, host_mixed_reads(6, 64 * 1024, 64, 2));
  add(corpus, IsaProfile::kHostRv64, host_pointer_chase(64));
  return corpus;
}

analysis::Report analyze_corpus_entry(const CorpusEntry& entry) {
  analysis::Options options;
  options.profile = entry.profile;
  if (entry.profile == analysis::IsaProfile::kClusterRv32) {
    options.base = 0;
    options.pic = true;
    const u64 tcdm_top = mem::map::kTcdmBase + options.tcdm_bytes;
    options.entry_values.emplace_back(
        isa::reg::a0,
        analysis::Interval::constant(mem::map::kTcdmBase, 32));
    options.entry_values.emplace_back(
        isa::reg::sp, analysis::Interval::range(
                          tcdm_top - u64{kCorpusCores - 1} * 1024,
                          tcdm_top));
  } else {
    options.base = core::layout::kHostCodeBase;
    options.pic = false;
    options.entry_values.emplace_back(
        isa::reg::sp,
        analysis::Interval::constant(core::layout::kHostStackTop - 64, 64));
  }
  return analysis::analyze(entry.words, options);
}

std::vector<CorpusResult> run_corpus_analysis() {
  std::vector<CorpusResult> results;
  for (CorpusEntry& entry : analysis_corpus()) {
    CorpusResult r;
    r.report = analyze_corpus_entry(entry);
    r.entry = std::move(entry);
    results.push_back(std::move(r));
  }
  return results;
}

std::string render_corpus_text(const std::vector<CorpusResult>& results) {
  // The program column holds the longest name and one space.
  int name_width = sizeof("program ") - 1;
  for (const CorpusResult& r : results) {
    name_width =
        std::max(name_width, static_cast<int>(r.entry.name.size()) + 1);
  }
  std::ostringstream os;
  os << std::left << std::setw(name_width) << "program" << std::right
     << std::setw(7) << "instrs" << std::setw(7) << "blocks"
     << std::setw(5) << "err" << std::setw(6) << "warn" << "\n";
  size_t diags = 0;
  for (const CorpusResult& r : results) {
    const analysis::Report& rep = r.report;
    os << std::left << std::setw(name_width) << r.entry.name << std::right
       << std::setw(7) << rep.instructions << std::setw(7) << rep.blocks
       << std::setw(5) << rep.errors() << std::setw(6) << rep.warnings()
       << "\n";
    diags += rep.diagnostics.size();
  }
  for (const CorpusResult& r : results) {
    for (const analysis::Diagnostic& d : r.report.diagnostics) {
      os << r.entry.name << ": " << d.to_string() << "\n";
    }
  }
  os << results.size() << " program(s), " << diags << " diagnostic(s)\n";
  return os.str();
}

std::string render_corpus_json(const std::vector<CorpusResult>& results) {
  std::ostringstream os;
  os << "{\n  \"corpus\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const CorpusResult& r = results[i];
    const analysis::Report& rep = r.report;
    os << "    {\n";
    os << "      \"name\": " << json_quote(r.entry.name) << ",\n";
    os << "      \"profile\": \""
       << (r.entry.profile == analysis::IsaProfile::kClusterRv32
               ? "cluster"
               : "host")
       << "\",\n";
    os << "      \"instructions\": " << rep.instructions << ",\n";
    os << "      \"blocks\": " << rep.blocks << ",\n";
    os << "      \"hw_loops\": " << rep.hw_loops << ",\n";
    os << "      \"errors\": " << rep.errors() << ",\n";
    os << "      \"warnings\": " << rep.warnings() << ",\n";
    os << "      \"diagnostics\": [";
    for (size_t d = 0; d < rep.diagnostics.size(); ++d) {
      os << (d == 0 ? "\n" : ",\n") << "        "
         << json_quote(rep.diagnostics[d].to_string());
    }
    os << (rep.diagnostics.empty() ? "]\n" : "\n      ]\n");
    os << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace hulkv::kernels
