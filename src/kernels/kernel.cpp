#include "kernels/kernel.hpp"

#include "analysis/analyzer.hpp"
#include "common/log.hpp"
#include "isa/instr.hpp"
#include "profile/profile.hpp"
#include "telemetry/telemetry.hpp"

namespace hulkv::kernels {

std::string_view precision_name(Precision p) {
  switch (p) {
    case Precision::kInt32:
      return "int32";
    case Precision::kInt8:
      return "int8";
    case Precision::kFp32:
      return "fp32";
    case Precision::kFp16:
      return "fp16";
  }
  return "?";
}

KernelProgram finish_program(std::string name, Precision precision,
                             isa::Assembler& a, u64 ops) {
  KernelProgram program;
  program.name = std::move(name);
  program.precision = precision;
  program.words = a.assemble();
  program.ops = ops;
  program.symbols = a.symbols();
  return program;
}

HostRun run_host_program(core::HulkVSoc& soc, const KernelProgram& program,
                         std::span<const u64> args) {
  profile::session().register_symbols(core::layout::kHostCodeBase,
                                      program.words.size() * 4,
                                      program.name, program.symbols);
  telemetry::note_program(program.name, program.words.data(),
                          program.words.size() * 4);
  return run_host_program(soc, program.words, args);
}

HostRun run_host_program(core::HulkVSoc& soc,
                         const std::vector<u32>& program,
                         std::span<const u64> args) {
  prepare_host_program(soc, program, args);
  const auto result = soc.host().run();
  HULKV_CHECK(result.exited, "host program did not exit");
  return {result.cycles, result.instret, result.exit_code};
}

void prepare_host_program(core::HulkVSoc& soc,
                          const std::vector<u32>& program,
                          std::span<const u64> args) {
  HULKV_CHECK(args.size() <= 6, "host programs take up to 6 arguments");

  // Load-time lint: reject images the static analyzer can prove broken
  // (see src/analysis/). Only the registers actually passed count as
  // defined at entry.
  analysis::Options options;
  options.base = core::layout::kHostCodeBase;
  options.profile = analysis::IsaProfile::kHostRv64;
  options.pic = false;  // analyzed at the real load address
  u64 entry = analysis::reg_mask({isa::reg::sp});
  for (size_t i = 0; i < args.size(); ++i) {
    entry |= u64{1} << (isa::reg::a0 + i);
  }
  options.entry_defined = entry;
  // run_host_program sets sp to a fixed address below — seeding the
  // analyzer with it makes stack accesses provably mapped even through
  // auipc/add-derived address arithmetic (non-PIC interval folding).
  options.entry_values.emplace_back(
      isa::reg::sp,
      analysis::Interval::constant(core::layout::kHostStackTop - 64, 64));
  const analysis::Report report = [&] {
    const telemetry::Span span(telemetry::SpanPhase::kProgramAnalyze);
    return analysis::analyze(program, options);
  }();
  analysis::log_report(report, "host-program");
  if (!report.ok()) {
    throw SimError("host program rejected by static analysis:\n" +
                   report.to_string());
  }

  {
    const telemetry::Span load_span(telemetry::SpanPhase::kProgramLoad);
    telemetry::note_program("host-program", program.data(),
                            program.size() * 4);
    if (telemetry::enabled()) {
      telemetry::registry().note_config_fingerprint(
          soc.config_fingerprint());
    }
    soc.load_program(core::layout::kHostCodeBase, program);
  }

  auto& host = soc.host();
  for (size_t i = 0; i < args.size(); ++i) {
    host.set_reg(static_cast<u8>(isa::reg::a0 + i), args[i]);
  }
  host.set_reg(isa::reg::sp, core::layout::kHostStackTop - 64);
  host.set_pc(core::layout::kHostCodeBase);
}

}  // namespace hulkv::kernels
