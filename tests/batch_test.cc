// hulkv::batch: worker pool, snapshot forking, the --jobs flag.
//
// The determinism contract under test: results land in pre-allocated
// index slots, so a sweep's output is identical for every worker count.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "batch/batch.hpp"
#include "core/soc.hpp"
#include "kernels/iot_benchmarks.hpp"
#include "report/report.hpp"
#include "trace/trace.hpp"

namespace {

using namespace hulkv;

TEST(RunJobs, EveryJobRunsExactlyOnce) {
  constexpr u64 kCount = 64;
  std::vector<std::atomic<u32>> hits(kCount);
  batch::run_jobs(kCount, 4, [&](u64 index) { hits[index].fetch_add(1); });
  for (u64 i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1u) << "job " << i;
  }
}

TEST(RunJobs, ContendedQueueStress) {
  // Many tiny jobs on an oversubscribed pool: the handout counter and
  // the per-slot writes are the surfaces a queue race would corrupt.
  // Run under -DHULKV_SANITIZE=thread this is the TSan gate for the
  // job queue (scripts/ci.sh).
  constexpr u64 kCount = 4096;
  std::vector<u64> slot(kCount, 0);
  std::atomic<u64> sum{0};
  batch::run_jobs(kCount, 8, [&](u64 index) {
    slot[index] = index + 1;  // distinct slot: no synchronisation needed
    sum.fetch_add(index, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), kCount * (kCount - 1) / 2);
  for (u64 i = 0; i < kCount; ++i) ASSERT_EQ(slot[i], i + 1);
}

TEST(RunJobs, SerialPathRunsInIndexOrder) {
  std::vector<u64> order;
  batch::run_jobs(16, 1, [&](u64 index) { order.push_back(index); });
  std::vector<u64> expected(16);
  std::iota(expected.begin(), expected.end(), u64{0});
  EXPECT_EQ(order, expected);
}

TEST(RunJobs, ZeroJobsIsANoOp) {
  batch::run_jobs(0, 4, [&](u64) { FAIL() << "job ran"; });
}

TEST(RunJobs, JobExceptionPropagates) {
  EXPECT_THROW(batch::run_jobs(8, 4,
                               [&](u64 index) {
                                 if (index == 5) {
                                   throw SimError("boom from job 5");
                                 }
                               }),
               SimError);
}

TEST(RunJobs, SerialJobExceptionPropagates) {
  EXPECT_THROW(
      batch::run_jobs(2, 1, [&](u64) { throw SimError("serial boom"); }),
      SimError);
}

TEST(RunJobs, RefusesParallelismWhileTracing) {
  trace::sink().clear();
  trace::sink().enable();
  EXPECT_THROW(batch::run_jobs(4, 2, [](u64) {}), SimError);
  // The serial path stays usable under tracing.
  u32 ran = 0;
  batch::run_jobs(4, 1, [&](u64) { ++ran; });
  EXPECT_EQ(ran, 4u);
  trace::sink().disable();
  trace::sink().clear();
}

TEST(SweepEngine, DefaultsToHardwareConcurrency) {
  EXPECT_EQ(batch::SweepEngine().workers(), batch::default_jobs());
  EXPECT_EQ(batch::SweepEngine(3).workers(), 3u);
  EXPECT_GE(batch::default_jobs(), 1u);
}

TEST(SweepEngine, ParallelMapEqualsSerialMap) {
  // A real (small) simulation per point: the parallel sweep must land
  // cycle counts identical to the serial one, in the same slots.
  const auto point = [](u64 index) {
    core::SocConfig cfg;
    cfg.llc.num_lines = 64u << index;
    core::HulkVSoc soc(cfg);
    const auto prog = kernels::host_stride_reads(128, 256, 3);
    return kernels::run_host_program(
               soc, prog.words,
               std::array<u64, 1>{core::layout::kSharedBase})
        .cycles;
  };
  const std::vector<Cycles> serial =
      batch::SweepEngine(1).map<Cycles>(3, point);
  const std::vector<Cycles> parallel =
      batch::SweepEngine(3).map<Cycles>(3, point);
  EXPECT_EQ(serial, parallel);
}

TEST(SweepEngine, MapForkedMatchesSerialContinuation) {
  // Warm a SoC, checkpoint it, then fork the sweep from the snapshot:
  // every forked point must behave exactly like the warmed original.
  core::SocConfig cfg;
  core::HulkVSoc warmed(cfg);
  const auto prog = kernels::host_stride_reads(64, 512, 4);
  const std::array<u64, 1> args = {core::layout::kSharedBase};
  kernels::run_host_program(warmed, prog.words, args);  // warm-up
  const batch::SocSnapshot snap = batch::SocSnapshot::capture(warmed);
  EXPECT_FALSE(snap.empty());

  // Reference: continue the warmed SoC itself.
  const Cycles reference =
      kernels::run_host_program(warmed, prog.words, args).cycles;

  // A fork is a fresh SoC of the same config restored from the snapshot.
  const std::vector<Cycles> forked =
      batch::SweepEngine(3).map<Cycles>(4, [&](u64) {
        core::HulkVSoc soc(cfg);
        snap.restore_into(soc);
        return kernels::run_host_program(soc, prog.words, args).cycles;
      });
  for (u64 i = 0; i < forked.size(); ++i) {
    EXPECT_EQ(forked[i], reference) << "fork " << i;
  }
}

TEST(SocSnapshot, ConcurrentRestoresMatchSourceDigest) {
  // Serve workers fork from one warm snapshot at once: each restore
  // reads the shared bytes in place, and every fork must land on the
  // source's exact state.
  core::SocConfig cfg;
  core::HulkVSoc source(cfg);
  const std::array<u64, 1> args = {core::layout::kSharedBase};
  kernels::run_host_program(
      source, kernels::host_stride_reads(64, 128, 2).words, args);
  const batch::SocSnapshot snap = batch::SocSnapshot::capture(source);
  const u64 want = source.state_digest();

  constexpr u32 kThreads = 4;
  std::array<u64, kThreads> got{};
  std::vector<std::thread> threads;
  for (u32 t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      core::HulkVSoc soc(cfg);
      snap.restore_into(soc);
      got[t] = soc.state_digest();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (u32 t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], want) << "thread " << t;
}

/// --jobs as the figure benches parse it, through the shared flag table.
u32 parsed_jobs(std::vector<const char*> argv) {
  report::BenchOptions options;
  cli::Parser parser = report::bench_flag_parser("bench", &options);
  EXPECT_TRUE(parser.parse(static_cast<int>(argv.size()),
                           const_cast<char**>(argv.data())))
      << parser.error();
  return options.jobs;
}

TEST(BenchOptions, ParsesJobs) {
  EXPECT_EQ(parsed_jobs({"bench", "--jobs", "7"}), 7u);
  EXPECT_EQ(parsed_jobs({"bench"}), 0u);
}

}  // namespace
