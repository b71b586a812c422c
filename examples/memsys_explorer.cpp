// Memory-system design-space explorer: sweeps the LLC geometry
// (section III-A's parameterization) and the HyperBUS width on the
// synthetic cache-stress benchmark, showing how a downstream user would
// size the fully digital memory hierarchy for their workload.
//
// Every configuration point is an independent SoC, so the sweeps run on
// the batch::SweepEngine worker pool; results print from the slots in
// grid order, so the output is identical for every worker count.
//
// Usage: memsys_explorer [stride_bytes] [--jobs N]   (default 128,
// hardware concurrency). A bad argument exits 2 with a message.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "batch/batch.hpp"
#include "common/cli.hpp"
#include "core/soc.hpp"
#include "kernels/iot_benchmarks.hpp"

using namespace hulkv;

namespace {

/// Reads per sweep point: `host_stride_reads(stride, kReads, ...)`.
constexpr u32 kReads = 1024;

/// Parse `[stride_bytes] [--jobs N]`. Returns the usage error, or ""
/// when every argument is valid.
std::string parse_args(int argc, char** argv, u32* stride, u32* jobs) {
  cli::Parser parser("memsys_explorer");
  parser.add_u32("--jobs", jobs,
                 "sweep worker count (0 = hardware concurrency)");
  // The one positional argument is the stride; the rest go to the
  // parser, which rejects unknown flags and malformed values.
  std::vector<char*> flags = {argv[0]};
  const char* stride_arg = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      flags.push_back(argv[i]);
      flags.push_back(argv[++i]);
    } else if (arg.starts_with("-")) {
      flags.push_back(argv[i]);
    } else if (stride_arg == nullptr) {
      stride_arg = argv[i];
    } else {
      return "memsys_explorer: unexpected argument \"" + arg + "\"";
    }
  }
  if (!parser.parse(static_cast<int>(flags.size()), flags.data())) {
    return parser.error();
  }
  if (stride_arg == nullptr) return "";
  const std::string text = stride_arg;
  errno = 0;
  char* end = nullptr;
  const unsigned long value = std::strtoul(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno != 0 || value > ~u32{0}) {
    return "memsys_explorer: stride_bytes expects an unsigned integer, "
           "got \"" + text + "\"";
  }
  if (value % 4 != 0) {
    return "memsys_explorer: stride_bytes " + text +
           " is not a multiple of 4 (the reads are 32-bit words)";
  }
  if (value * kReads > core::layout::kSharedSize) {
    return "memsys_explorer: stride_bytes " + text + " makes " +
           std::to_string(kReads) +
           " reads span more than the shared DRAM region (" +
           std::to_string(core::layout::kSharedSize) + " B)";
  }
  *stride = static_cast<u32>(value);
  return "";
}

Cycles run(const core::SocConfig& cfg, u32 stride) {
  core::HulkVSoc soc(cfg);
  const auto prog = kernels::host_stride_reads(stride, kReads, 10);
  return kernels::run_host_program(soc, prog.words,
                                   std::array<u64, 1>{
                                       core::layout::kSharedBase})
      .cycles;
}

/// Run one config per grid slot on the pool; cycles come back in order.
std::vector<Cycles> sweep(const batch::SweepEngine& engine,
                          const std::vector<core::SocConfig>& grid,
                          u32 stride) {
  return engine.map<Cycles>(
      grid.size(), [&](u64 index) { return run(grid[index], stride); });
}

}  // namespace

int main(int argc, char** argv) {
  u32 stride = 128;
  u32 jobs = 0;
  const std::string error = parse_args(argc, argv, &stride, &jobs);
  if (!error.empty()) {
    std::fprintf(stderr,
                 "%s\nusage: memsys_explorer [stride_bytes] [--jobs N]\n",
                 error.c_str());
    return 2;
  }
  const batch::SweepEngine engine(jobs);
  std::printf("HULK-V memory-system explorer, stride %u B "
              "(footprint %u kB)\n\n",
              stride, stride);

  // --- LLC size sweep: scale the number of lines (sets) ---
  std::printf("LLC size sweep (ways=8, blocks=8, AXI_dw=8B):\n");
  std::printf("%10s %10s %12s\n", "lines", "LLC size", "cycles");
  const std::vector<u32> line_grid = {64u, 128u, 256u, 512u, 1024u};
  std::vector<core::SocConfig> size_cfgs;
  for (const u32 lines : line_grid) {
    core::SocConfig cfg;
    cfg.llc.num_lines = lines;
    size_cfgs.push_back(cfg);
  }
  const std::vector<Cycles> size_cycles = sweep(engine, size_cfgs, stride);
  for (size_t i = 0; i < line_grid.size(); ++i) {
    std::printf("%10u %8u kB %12llu\n", line_grid[i],
                size_cfgs[i].llc.size_bytes() / 1024,
                static_cast<unsigned long long>(size_cycles[i]));
  }

  // --- LLC associativity sweep ---
  std::printf("\nLLC associativity sweep (128 kB held constant):\n");
  std::printf("%10s %12s\n", "ways", "cycles");
  const std::vector<u32> way_grid = {1u, 2u, 4u, 8u, 16u};
  std::vector<core::SocConfig> way_cfgs;
  for (const u32 ways : way_grid) {
    core::SocConfig cfg;
    cfg.llc.num_ways = ways;
    cfg.llc.num_lines = 2048 / ways;  // keep 128 kB
    way_cfgs.push_back(cfg);
  }
  const std::vector<Cycles> way_cycles = sweep(engine, way_cfgs, stride);
  for (size_t i = 0; i < way_grid.size(); ++i) {
    std::printf("%10u %12llu\n", way_grid[i],
                static_cast<unsigned long long>(way_cycles[i]));
  }

  // --- HyperBUS width: 1 vs 2 interleaved buses ---
  std::printf("\nHyperBUS interfaces (paper section III-B):\n");
  std::printf("%10s %12s %18s\n", "buses", "cycles", "peak bandwidth");
  const std::vector<u32> bus_grid = {1u, 2u};
  std::vector<core::SocConfig> bus_cfgs;
  for (const u32 buses : bus_grid) {
    core::SocConfig cfg;
    cfg.hyperram.num_buses = buses;
    cfg.enable_llc = false;  // expose the raw device
    bus_cfgs.push_back(cfg);
  }
  const std::vector<Cycles> bus_cycles = sweep(engine, bus_cfgs, stride);
  for (size_t i = 0; i < bus_grid.size(); ++i) {
    std::printf("%10u %12llu %15.1f Gbps\n", bus_grid[i],
                static_cast<unsigned long long>(bus_cycles[i]),
                bus_cfgs[i].hyperram.peak_bytes_per_cycle() * 450e6 * 8 /
                    1e9);
  }

  // --- No LLC vs LLC, both memories ---
  std::printf("\nFour evaluation configurations (section VI-B):\n");
  std::vector<core::SocConfig> quad_cfgs;
  for (const bool llc : {true, false}) {
    for (const auto kind :
         {core::MainMemoryKind::kDdr4, core::MainMemoryKind::kHyperRam}) {
      core::SocConfig cfg;
      cfg.main_memory = kind;
      cfg.enable_llc = llc;
      quad_cfgs.push_back(cfg);
    }
  }
  const std::vector<Cycles> quad_cycles = sweep(engine, quad_cfgs, stride);
  for (size_t i = 0; i < quad_cfgs.size(); ++i) {
    std::printf("  %-8s %-7s %12llu cycles\n",
                quad_cfgs[i].main_memory == core::MainMemoryKind::kDdr4
                    ? "DDR4"
                    : "Hyper",
                quad_cfgs[i].enable_llc ? "+LLC" : "(raw)",
                static_cast<unsigned long long>(quad_cycles[i]));
  }
  return 0;
}
