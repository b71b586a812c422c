// Microbenchmarks of the simulator itself (google-benchmark): ISS
// throughput, cache-model and HyperRAM-model access rates. They are for
// diagnosis and reproduce no paper result. No gate compares their
// numbers: perfbench (BENCHMARK.json) is the performance gate, and
// scripts/ci.sh only checks that every row runs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "batch/batch.hpp"
#include "cluster/cluster.hpp"
#include "core/soc.hpp"
#include "isa/assembler.hpp"
#include "isa/block_cache.hpp"
#include "isa/decoder.hpp"
#include "kernels/iot_benchmarks.hpp"
#include "kernels/kernel.hpp"
#include "mem/backing_store.hpp"
#include "mem/cache.hpp"
#include "mem/hyperram.hpp"
#include "profile/profile.hpp"
#include "serve/service.hpp"
#include "report/report.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace hulkv;

void BM_Decode(benchmark::State& state) {
  const u32 word =
      isa::encode({.op = isa::Op::kAdd, .rd = 1, .rs1 = 2, .rs2 = 3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(isa::decode(word));
  }
}
BENCHMARK(BM_Decode);

/// Host ISS hot loop: threaded-code dispatch (DESIGN.md §15).
void BM_HostIssLoop(benchmark::State& state) {
  core::SocConfig cfg;
  cfg.main_memory = core::MainMemoryKind::kDdr4;
  core::HulkVSoc soc(cfg);
  isa::Assembler a(core::layout::kHostCodeBase, true);
  using namespace isa::reg;
  a.li(t0, 100000);
  a.label("loop");
  a.addi(t1, t1, 1);
  a.addi(t0, t0, -1);
  a.bnez(t0, "loop");
  a.li(a7, 93);
  a.li(a0, 0);
  a.ecall();
  const std::vector<u32> words = a.assemble();
  soc.load_program(core::layout::kHostCodeBase, words);

  u64 instructions = 0;
  for (auto _ : state) {
    soc.host().set_pc(core::layout::kHostCodeBase);
    const auto run = soc.host().run();
    instructions += run.instret;
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}

BENCHMARK(BM_HostIssLoop)->Unit(benchmark::kMillisecond);

/// Scoped "profiler collecting" state for the *Profile benchmark
/// variants: fresh session on entry, prior enabled/disabled state
/// restored (and the session cleared) on exit, so the variants never
/// leak accumulators into a --profile report.
class ProfileScope {
 public:
  ProfileScope() : was_enabled_(profile::enabled()) {
    profile::session().reset();
    profile::session().enable();
  }
  ~ProfileScope() {
    profile::session().reset();
    if (!was_enabled_) profile::session().disable();
  }

 private:
  bool was_enabled_;
};

/// BM_HostIssLoop with the cycle profiler collecting, so the loop's
/// observed instantiation runs: the profile-on overhead row (compare
/// instr/s against BM_HostIssLoop).
void BM_HostIssLoopProfile(benchmark::State& state) {
  const ProfileScope scope;
  BM_HostIssLoop(state);
}
BENCHMARK(BM_HostIssLoopProfile)->Unit(benchmark::kMillisecond);

/// Cluster ISS hot loop (all 8 cores).
void BM_ClusterIssLoop(benchmark::State& state) {
  core::SocConfig cfg;
  cfg.main_memory = core::MainMemoryKind::kDdr4;
  core::HulkVSoc soc(cfg);
  isa::Assembler a(0, /*rv64=*/false);
  using namespace isa::reg;
  // Hardware loop over a MAC body: the cluster ISS hot path (block
  // dispatch + hwloop back edges) on all 8 cores.
  a.li(t0, 0);
  a.li(t1, 3);
  a.li(t4, 50000);
  a.lp_count(0, t4);
  a.lp_starti(0, "body");
  a.lp_endi(0, "end");
  a.label("body");
  a.rr(isa::Op::kPMac, t0, t1, t1);
  a.addi(t2, t2, 1);
  a.label("end");
  a.addi(t3, t3, 1);
  a.li(a7, cluster::envcall::kExit);
  a.ecall();
  const std::vector<u32> words = a.assemble();
  soc.load_program(mem::map::kL2Base, words);

  u64 instructions = 0;
  Cycles start = 0;
  for (auto _ : state) {
    const auto run =
        soc.cluster().run_kernel(start, mem::map::kL2Base, 0);
    instructions += run.instret;
    start = run.finish;
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}

BENCHMARK(BM_ClusterIssLoop)->Unit(benchmark::kMillisecond);

/// BM_ClusterIssLoop with the cycle profiler collecting (the observed
/// instantiation of the slice loop).
void BM_ClusterIssLoopProfile(benchmark::State& state) {
  const ProfileScope scope;
  BM_ClusterIssLoop(state);
}
BENCHMARK(BM_ClusterIssLoopProfile)->Unit(benchmark::kMillisecond);

/// Scoped "telemetry collecting" state, mirroring ProfileScope: fresh
/// registry on entry, prior enabled/disabled state restored on exit so
/// the variants never leak spans into a --telemetry manifest.
class TelemetryScope {
 public:
  TelemetryScope() : was_enabled_(telemetry::enabled()) {
    telemetry::registry().reset();
    telemetry::registry().enable();
  }
  ~TelemetryScope() {
    telemetry::registry().reset();
    if (!was_enabled_) telemetry::registry().disable();
  }

 private:
  bool was_enabled_;
};

/// BM_HostIssLoop with telemetry spans collecting: the telemetry-on
/// overhead row (compare instr/s against BM_HostIssLoop).
void BM_HostIssLoopTelemetry(benchmark::State& state) {
  const TelemetryScope scope;
  BM_HostIssLoop(state);
}
BENCHMARK(BM_HostIssLoopTelemetry)->Unit(benchmark::kMillisecond);

/// Span construct/destruct with telemetry disabled: the cost every
/// instrumented phase pays in normal (untelemetered) runs. Should be a
/// load + branch — low single-digit ns.
void BM_TelemetrySpanDisabled(benchmark::State& state) {
  if (telemetry::enabled()) telemetry::registry().disable();
  for (auto _ : state) {
    const telemetry::Span span(telemetry::SpanPhase::kBatchJob);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_TelemetrySpanDisabled);

/// Span construct/destruct with telemetry collecting: two clock reads,
/// one histogram record, one TLS buffer append.
void BM_TelemetrySpanEnabled(benchmark::State& state) {
  const TelemetryScope scope;
  for (auto _ : state) {
    const telemetry::Span span(telemetry::SpanPhase::kBatchJob);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_TelemetrySpanEnabled);

/// Raw histogram record throughput (the per-sample floor under every
/// enabled span and sweep-latency sample).
void BM_HistogramRecord(benchmark::State& state) {
  telemetry::AtomicHistogram hist;
  u64 v = 1;
  for (auto _ : state) {
    hist.record(v);
    v = (v * 2862933555777941757ull + 3037000493ull) >> 8;  // cheap lcg
    benchmark::DoNotOptimize(v);
  }
  benchmark::DoNotOptimize(&hist);
}
BENCHMARK(BM_HistogramRecord);

void BM_BlockCacheLookup(benchmark::State& state) {
  // Steady-state dispatch cost: one warm block_at probe (the memoized
  // loop-body case the ISS run loops hit every iteration).
  isa::Assembler a(0x1000, /*rv64=*/false);
  using namespace isa::reg;
  for (int i = 0; i < 16; ++i) a.addi(t0, t0, 1);
  a.ecall();
  const std::vector<u32> words = a.assemble();
  isa::BlockCache cache([&words](Addr pc) {
    return words[(pc - 0x1000) / 4];
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(&cache.block_at(0x1000));
  }
}
BENCHMARK(BM_BlockCacheLookup);

void BM_BackingStoreRead(benchmark::State& state) {
  // Same-page 8-byte reads: the page-pointer-cache fast path every host
  // load in the DRAM window takes.
  mem::BackingStore store;
  store.store<u64>(0x1000, 42);
  u64 v = 0;
  for (auto _ : state) {
    store.read(0x1000, &v, 8);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_BackingStoreRead);

void BM_CacheHit(benchmark::State& state) {
  mem::FixedLatency next(100);
  mem::CacheModel cache({.name = "bench"}, &next);
  cache.access(0, 0x8000'0000, 8, false);
  Cycles now = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(now++, 0x8000'0000, 8, false));
  }
}
BENCHMARK(BM_CacheHit);

void BM_HyperRamBurst(benchmark::State& state) {
  mem::HyperRamModel hyper({});
  Cycles now = 0;
  for (auto _ : state) {
    now = hyper.access(now, 0x8000'0000 + (now % 4096) * 64, 64, false);
    benchmark::DoNotOptimize(now);
  }
}
BENCHMARK(BM_HyperRamBurst);

/// The serve daemon's per-point data path on a cache hit — the
/// steady-state of a popular point, and the path every request pays
/// at minimum. The plain row is the tracing-off path (StageClock ==
/// nullptr: zero clock reads inside run_point, pinned by
/// observation_off_test); the Obs row times the same hit with a clock
/// attached (the tracing-on overhead).
void serve_point_cached(benchmark::State& state, bool obs) {
  serve::Service service;
  const serve::PointParams point = {0, 1, 1};
  const auto never_cancel = [] { return serve::Status::kOk; };
  // Prime the cache: one real simulation, then every iteration hits.
  service.run_point(point, false, never_cancel);
  serve::obs::StageClock clock;
  u64 points = 0;
  for (auto _ : state) {
    clock = {};
    const serve::Service::PointResult result = service.run_point(
        point, false, never_cancel, obs ? &clock : nullptr);
    benchmark::DoNotOptimize(result.row.cycles);
    ++points;
  }
  state.counters["points/s"] = benchmark::Counter(
      static_cast<double>(points), benchmark::Counter::kIsRate);
}

void BM_ServePointCached(benchmark::State& state) {
  serve_point_cached(state, false);
}
BENCHMARK(BM_ServePointCached);

void BM_ServePointCachedObs(benchmark::State& state) {
  serve_point_cached(state, true);
}
BENCHMARK(BM_ServePointCachedObs);

/// A SoC with some run history, so snapshots carry real state (warm
/// caches, non-zero stats) rather than a freshly-reset machine.
core::HulkVSoc& warmed_soc() {
  static core::HulkVSoc soc{core::SocConfig{}};
  static bool warmed = false;
  if (!warmed) {
    warmed = true;
    const auto prog = kernels::host_stride_reads(128, 512, 2);
    kernels::run_host_program(
        soc, prog, std::array<u64, 1>{core::layout::kSharedBase});
  }
  return soc;
}

void BM_SnapshotSave(benchmark::State& state) {
  core::HulkVSoc& soc = warmed_soc();
  u64 bytes = 0;
  for (auto _ : state) {
    std::ostringstream os(std::ios::binary);
    soc.save(os);
    bytes += static_cast<u64>(os.tellp());
    benchmark::DoNotOptimize(os);
  }
  state.counters["MB/s"] = benchmark::Counter(
      static_cast<double>(bytes) / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SnapshotSave)->Unit(benchmark::kMillisecond);

void BM_SnapshotRestore(benchmark::State& state) {
  const batch::SocSnapshot snap = batch::SocSnapshot::capture(warmed_soc());
  core::HulkVSoc target{core::SocConfig{}};
  u64 bytes = 0;
  for (auto _ : state) {
    snap.restore_into(target);
    bytes += snap.size_bytes();
  }
  state.counters["MB/s"] = benchmark::Counter(
      static_cast<double>(bytes) / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SnapshotRestore)->Unit(benchmark::kMillisecond);

void BM_SnapshotDigest(benchmark::State& state) {
  core::HulkVSoc& soc = warmed_soc();
  for (auto _ : state) {
    benchmark::DoNotOptimize(soc.state_digest());
  }
}
BENCHMARK(BM_SnapshotDigest)->Unit(benchmark::kMillisecond);

void BM_BatchSweep(benchmark::State& state) {
  // A small but real sweep (one SoC + host workload per point) at the
  // worker count given by the range argument. Comparing the /1 row to
  // the /N row gives the measured batch scaling on this machine.
  const u32 workers = static_cast<u32>(state.range(0));
  const batch::SweepEngine engine(workers);
  constexpr u64 kPoints = 4;
  for (auto _ : state) {
    const std::vector<Cycles> cycles = engine.map<Cycles>(
        kPoints, [](u64 index) {
          core::SocConfig cfg;
          cfg.llc.num_lines = 128u << index;
          core::HulkVSoc soc(cfg);
          const auto prog = kernels::host_stride_reads(256, 512, 3);
          return kernels::run_host_program(
                     soc, prog.words,
                     std::array<u64, 1>{core::layout::kSharedBase})
              .cycles;
        });
    benchmark::DoNotOptimize(cycles.data());
  }
  state.counters["workers"] = static_cast<double>(engine.workers());
}
BENCHMARK(BM_BatchSweep)
    ->Arg(1)
    // At least 2 workers even on a single-core box, so the scaling row
    // (and its honest ~1x there) always exists.
    ->Arg(static_cast<int>(std::max(2u, hulkv::batch::default_jobs())))
    ->Unit(benchmark::kMillisecond);

/// Collects every google-benchmark run into the shared MetricsReport;
/// the text table and the --json file then render from the same cells.
class ReportCollector : public benchmark::BenchmarkReporter {
 public:
  explicit ReportCollector(hulkv::report::MetricsReport* rep,
                           hulkv::report::Table* table)
      : rep_(rep), table_(table) {}

  bool ReportContext(const Context&) override { return true; }

  void ReportRuns(const std::vector<Run>& runs) override {
    namespace report = hulkv::report;
    for (const Run& run : runs) {
      const double iters = static_cast<double>(run.iterations);
      const double real_ns =
          iters > 0 ? run.real_accumulated_time / iters * 1e9 : 0;
      const double cpu_ns =
          iters > 0 ? run.cpu_accumulated_time / iters * 1e9 : 0;
      table_->add_row({report::Value::text(run.benchmark_name()),
                       report::Value::uinteger(run.iterations),
                       report::Value::number(real_ns, 1),
                       report::Value::number(cpu_ns, 1)});
      for (const auto& [name, counter] : run.counters) {
        rep_->add_metric(run.benchmark_name() + "." + name,
                         report::Value::number(counter.value, 1));
      }
    }
  }

 private:
  hulkv::report::MetricsReport* rep_;
  hulkv::report::Table* table_;
};

}  // namespace

int main(int argc, char** argv) {
  namespace report = hulkv::report;
  const report::BenchOptions options =
      report::bench_args_or_exit(argc, argv, {.passes_unknown = true});
  profile::configure(options);
  telemetry::configure(options);

  // Strip the shared bench flags before handing argv to google-benchmark
  // (it rejects flags it does not know).
  std::vector<char*> filtered;
  filtered.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json" || arg == "--trace") {
      ++i;
      continue;
    }
    // Optional-value flags: only the = form carries a value.
    if (arg == "--profile" || arg == "--telemetry") continue;
    if (arg.rfind("--json=", 0) == 0 || arg.rfind("--trace=", 0) == 0 ||
        arg.rfind("--profile=", 0) == 0 ||
        arg.rfind("--telemetry=", 0) == 0) {
      continue;
    }
    filtered.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(filtered.size());
  benchmark::Initialize(&filtered_argc, filtered.data());

  report::MetricsReport rep("simperf");
  rep.add_note("Simulator microbenchmarks (google-benchmark): ISS "
               "throughput, cache-model and HyperRAM-model access rates.");
  report::Table& table = rep.add_table(
      "microbenchmarks",
      {"benchmark", "iterations", "real_ns_per_iter", "cpu_ns_per_iter"});
  ReportCollector collector(&rep, &table);
  benchmark::RunSpecifiedBenchmarks(&collector);
  benchmark::Shutdown();
  profile::finish_bench(rep, options);
  report::finish_bench(rep, options);
  telemetry::finish_bench(rep, options);
  return 0;
}
