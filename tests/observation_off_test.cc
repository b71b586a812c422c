// Observation off costs nothing, pinned by counts instead of timings.
//
// Each observation mechanism counts its own entry points process-wide:
// telemetry::now_ns() (the library's only steady-clock read) counts its
// calls, and the cores count entries into their observed loops
// (Cva6Core::dispatch<true, *>, PmcaCore::slice<true>). With a mechanism
// off, the simulation paths must leave its count unchanged; with it on,
// the same runs must move it, so a test that passes cannot be passing
// because nothing was measured.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "batch/batch.hpp"
#include "core/soc.hpp"
#include "kernels/cluster_kernels.hpp"
#include "kernels/host_kernels.hpp"
#include "kernels/kernel.hpp"
#include "profile/profile.hpp"
#include "runtime/offload.hpp"
#include "serve/service.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace hulkv;

using Run = std::pair<std::string, std::function<void()>>;

u64 run_axpy_on(core::HulkVSoc& soc) {
  const auto program = kernels::host_axpy_f32(256);
  return kernels::run_host_program(
             soc, program,
             std::array<u64, 3>{core::layout::kSharedBase,
                                core::layout::kSharedBase + 8 * 1024,
                                core::layout::kSharedBase + 16 * 1024})
      .cycles;
}

/// The simulation paths under test, in order: a host program run, a
/// cold and a warm offload of one cluster kernel, and a SweepEngine
/// sweep of host runs at 1 and at 2 workers.
class SimulationRuns {
 public:
  SimulationRuns() : rt_(&soc_) {}

  std::vector<Run> runs() {
    return {
        {"host program run", [this] { EXPECT_GT(run_axpy_on(soc_), 0u); }},
        {"cold offload", [this] { EXPECT_GT(offload(), 0u); }},
        {"warm offload", [this] { EXPECT_EQ(offload(), 0u); }},
        {"sweep at 1 worker", [] { sweep(1); }},
        {"sweep at 2 workers", [] { sweep(2); }},
    };
  }

 private:
  /// One offload; returns its code-load cycles (0 once resident).
  Cycles offload() {
    const auto program = kernels::cluster_axpy_f32(256);
    if (!registered_) {
      handle_ = rt_.register_kernel(program.name, program.words,
                                    program.symbols);
      x_ = rt_.hulk_malloc(1024);
      y_ = rt_.hulk_malloc(1024);
      registered_ = true;
    }
    const u32 x_l1 = static_cast<u32>(mem::map::kTcdmBase) + 0x100;
    const auto result = rt_.offload(
        handle_, std::array<u32, 5>{static_cast<u32>(x_), static_cast<u32>(y_),
                                    0x3f800000u, x_l1, x_l1 + 1024});
    EXPECT_GT(result.kernel, 0u);
    return result.code_load;
  }

  static void sweep(u32 workers) {
    const std::vector<u64> cycles =
        batch::SweepEngine(workers).map<u64>(2, [](u64) {
          core::HulkVSoc soc{core::SocConfig{}};
          return run_axpy_on(soc);
        });
    EXPECT_GT(cycles[0], 0u);
    EXPECT_EQ(cycles[0], cycles[1]);
  }

  core::HulkVSoc soc_{core::SocConfig{}};
  runtime::OffloadRuntime rt_;
  runtime::KernelHandle handle_;
  Addr x_ = 0, y_ = 0;
  bool registered_ = false;
};

/// How far `counter` moves while `fn` runs.
u64 delta(u64 (*counter)(), const std::function<void()>& fn) {
  const u64 before = counter();
  fn();
  return counter() - before;
}

constexpr auto kClockReads = telemetry::detail::clock_reads;
constexpr auto kObservedEntries = profile::detail::observed_entries;

/// Telemetry on for the scope of one test, off and empty afterwards.
struct TelemetryOn {
  TelemetryOn() {
    telemetry::registry().reset();
    telemetry::registry().enable();
  }
  ~TelemetryOn() {
    telemetry::registry().disable();
    telemetry::registry().reset();
  }
};

TEST(TelemetryOff, SimulationRunsReadNoClock) {
  ASSERT_FALSE(telemetry::enabled());
  SimulationRuns sim;
  for (const auto& [name, run] : sim.runs()) {
    EXPECT_EQ(delta(kClockReads, run), 0u) << name;
  }
}

TEST(TelemetryOff, SimulationRunsReadTheClockWhenOn) {
  const TelemetryOn on;
  SimulationRuns sim;
  for (const auto& [name, run] : sim.runs()) {
    EXPECT_GT(delta(kClockReads, run), 0u) << name;
  }
}

TEST(ProfileOff, SimulationRunsNeverEnterTheObservedLoops) {
  ASSERT_FALSE(profile::enabled());
  SimulationRuns sim;
  for (const auto& [name, run] : sim.runs()) {
    EXPECT_EQ(delta(kObservedEntries, run), 0u) << name;
  }
}

TEST(ProfileOff, ProfiledRunsEnterTheObservedLoops) {
  profile::session().reset();
  profile::session().enable();
  SimulationRuns sim;
  // The sweeps are left out: run_jobs refuses 2 workers while profiling.
  for (const auto& [name, run] : sim.runs()) {
    if (name.starts_with("sweep")) continue;
    EXPECT_GT(delta(kObservedEntries, run), 0u) << name;
  }
  profile::session().disable();
  profile::session().reset();
}

/// A miss (warm fork plus run) and then the hit on the same point.
std::vector<Run> serve_runs(serve::Service& service,
                            serve::obs::StageClock* clock) {
  const serve::PointParams point{0, 1, 1};
  const auto run = [&service, clock, point](bool expect_hit) {
    const serve::Service::PointResult result =
        service.run_point(point, /*no_cache=*/false, {}, clock);
    EXPECT_EQ(result.status, serve::Status::kOk);
    EXPECT_EQ(result.cache_hit, expect_hit);
    EXPECT_GT(result.row.cycles, 0u);
  };
  return {{"miss", [run] { run(false); }}, {"hit", [run] { run(true); }}};
}

TEST(ServeObsOff, RunPointWithoutStageClockReadsNoClock) {
  ASSERT_FALSE(telemetry::enabled());
  serve::Service service;
  for (const auto& [name, run] : serve_runs(service, nullptr)) {
    EXPECT_EQ(delta(kClockReads, run), 0u) << name;
  }
}

TEST(ServeObsOff, RunPointWithStageClockReadsTheClock) {
  ASSERT_FALSE(telemetry::enabled());
  serve::Service service;
  serve::obs::StageClock clock;
  for (const auto& [name, run] : serve_runs(service, &clock)) {
    EXPECT_GT(delta(kClockReads, run), 0u) << name;
  }
}

}  // namespace
