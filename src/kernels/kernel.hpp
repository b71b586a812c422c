// Kernel framework: descriptors and runners for the DSP/ML kernels and
// IoT benchmarks of the evaluation (paper section VI).
//
// Every workload in this repo is a real program: host kernels are RV64
// programs executed by the CVA6 ISS, cluster kernels are RV32+Xpulp
// programs executed by the 8 PMCA cores. Programs are emitted by the
// in-memory assembler (isa/assembler.hpp) from the builders in
// host_kernels.hpp / cluster_kernels.hpp / iot_benchmarks.hpp.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/soc.hpp"
#include "isa/assembler.hpp"

namespace hulkv::kernels {

/// Arithmetic precision of a kernel variant.
enum class Precision { kInt32, kInt8, kFp32, kFp16 };

std::string_view precision_name(Precision p);

/// Descriptor of one kernel variant: its program plus the operation count
/// used for GOps (the paper counts a MAC as 2 operations).
struct KernelProgram {
  std::string name;
  Precision precision = Precision::kInt32;
  std::vector<u32> words;  // encoded instructions
  u64 ops = 0;             // total arithmetic operations of the problem
  /// (label, byte offset) pairs from the assembler — the program's
  /// symbol table, consumed by the cycle profiler for flamegraph and
  /// annotated-disassembly rollups.
  std::vector<std::pair<std::string, u64>> symbols;
};

/// Finalize a builder's assembler into a KernelProgram, capturing the
/// encoded words and the label table in one step.
KernelProgram finish_program(std::string name, Precision precision,
                             isa::Assembler& a, u64 ops);

/// Result of running a host program to completion.
struct HostRun {
  Cycles cycles = 0;
  u64 instret = 0;
  u64 exit_code = 0;
};

/// Load `program` at layout::kHostCodeBase, pass `args` in a0.., set up
/// the stack, and run the host core until the program exits.
/// The host core's clock keeps advancing across calls (one timeline).
HostRun run_host_program(core::HulkVSoc& soc,
                         const std::vector<u32>& program,
                         std::span<const u64> args);

/// The load half of run_host_program without the run: static analysis,
/// program load + fact attachment, argument/stack/pc setup. Callers
/// that need budgeted dispatch (e.g. the serve daemon checking request
/// deadlines between chunks) follow up with Cva6Core::run(budget)
/// segments and accumulate the results; run_host_program() is exactly
/// prepare + one unbounded run.
void prepare_host_program(core::HulkVSoc& soc,
                          const std::vector<u32>& program,
                          std::span<const u64> args);

/// KernelProgram overload: additionally registers the program's symbol
/// table with the cycle profiler (a no-op unless profiling is enabled),
/// so host flamegraphs resolve to kernel labels instead of raw PCs.
HostRun run_host_program(core::HulkVSoc& soc, const KernelProgram& program,
                         std::span<const u64> args);

}  // namespace hulkv::kernels
