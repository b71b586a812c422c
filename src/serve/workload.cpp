#include "serve/workload.hpp"

#include <string>

#include "snapshot/archive.hpp"

namespace hulkv::serve {

namespace {

// Service-sized footprints: Fig. 8's inputs divided by four, so one
// point is milliseconds of simulation.
constexpr u32 kServeScale = 4;

const kernels::IotBenchmark& benchmark(u8 id) {
  check_workload(id);
  return kernels::iot_benchmarks()[id];
}

}  // namespace

u8 workload_count() {
  return static_cast<u8>(kernels::iot_benchmarks().size());
}

const char* workload_name(u8 id) { return benchmark(id).name; }

void check_workload(u8 id) {
  HULKV_CHECK(id < workload_count(),
              "serve: workload id out of range: " + std::to_string(id));
}

void check_point(const PointParams& point) {
  check_workload(point.workload);
  HULKV_CHECK(point.mem_kind <= static_cast<u8>(core::MainMemoryKind::kRpcDram),
              "serve: memory kind out of range: " +
                  std::to_string(point.mem_kind));
  HULKV_CHECK(point.llc <= 1,
              "serve: llc flag out of range: " + std::to_string(point.llc));
}

core::SocConfig point_config(const PointParams& point) {
  check_point(point);
  core::SocConfig cfg;
  cfg.main_memory = static_cast<core::MainMemoryKind>(point.mem_kind);
  cfg.enable_llc = point.llc != 0;
  return cfg;
}

WorkloadSetup setup_workload(u8 id, core::HulkVSoc& soc) {
  return benchmark(id).setup(soc, kServeScale);
}

u64 workload_digest(u8 id) {
  check_workload(id);
  // Built once per process: the programs are pure functions of the id.
  static const std::vector<u64> digests = [] {
    std::vector<u64> out;
    for (const kernels::IotBenchmark& b : kernels::iot_benchmarks()) {
      const kernels::KernelProgram program = b.program(kServeScale);
      out.push_back(snapshot::fnv1a(snapshot::kFnvOffset,
                                    program.words.data(),
                                    program.words.size() * sizeof(u32)));
    }
    return out;
  }();
  return digests[id];
}

}  // namespace hulkv::serve
