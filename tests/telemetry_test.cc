// Host-side telemetry tests (src/telemetry/, DESIGN.md §14): histogram
// bucket soundness and merge algebra, percentile error bounds, span
// nesting + TLS flush + retention caps, the JSON reader, and the run
// manifest round trip. The SweepEngine* suites double as the TSan
// coverage for the always-on batch statistics (ci.sh runs the TSan
// tree with -R '^(RunJobs|SweepEngine|SocSnapshot|Determinism)').
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "batch/batch.hpp"
#include "common/rng.hpp"
#include "report/report.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/json.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/telemetry.hpp"

namespace hulkv::telemetry {
namespace {

// ---------------------------------------------------------------------
// Bucket scheme.

TEST(TelemetryHistogram, BucketBoundsAreSoundExhaustiveSmall) {
  // Every value up to 1M lands in a bucket whose [lower, upper] range
  // contains it, and indices never decrease as values grow.
  u32 prev_index = 0;
  for (u64 v = 0; v <= 1000000; ++v) {
    const u32 index = bucket_index(v);
    ASSERT_LT(index, kNumBuckets);
    ASSERT_LE(bucket_lower(index), v) << v;
    ASSERT_GE(bucket_upper(index), v) << v;
    ASSERT_GE(index, prev_index) << v;
    prev_index = index;
  }
}

TEST(TelemetryHistogram, BucketBoundsAreSoundAcrossAllOctaves) {
  // Probe each octave at its edges (first, last, one-past-boundary
  // neighbours) all the way to the top of the u64 range.
  for (u32 shift = 6; shift < 64; ++shift) {
    const u64 base = u64{1} << shift;
    for (const u64 v :
         {base - 1, base, base + 1, base + base / 2, base * 2 - 1}) {
      const u32 index = bucket_index(v);
      ASSERT_LT(index, kNumBuckets);
      ASSERT_LE(bucket_lower(index), v) << v;
      ASSERT_GE(bucket_upper(index), v) << v;
    }
  }
  EXPECT_EQ(bucket_index(~u64{0}), kNumBuckets - 1);
  EXPECT_EQ(bucket_upper(kNumBuckets - 1), ~u64{0});
}

TEST(TelemetryHistogram, BucketWidthBoundsRelativeError) {
  // Values below 64 are exact; above, a bucket spans at most lower/32,
  // which is what bounds the percentile quantisation error at 3.125%.
  for (u32 index = 0; index < kNumBuckets - 1; ++index) {
    const u64 lower = bucket_lower(index);
    const u64 width = bucket_upper(index) - lower + 1;
    if (lower < kSubBucketCount) {
      ASSERT_EQ(width, 1u) << index;
    } else {
      ASSERT_LE(width, lower / 32) << index;
    }
    // Buckets tile the axis: no gaps, no overlap.
    ASSERT_EQ(bucket_upper(index) + 1, bucket_lower(index + 1)) << index;
  }
}

// ---------------------------------------------------------------------
// HistogramData: exact fields, merge algebra, percentiles.

TEST(TelemetryHistogram, ExactFieldsAndMidpointRepresentatives) {
  HistogramData h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);  // empty: min reports 0, not ~0
  EXPECT_EQ(h.percentile(50), 0u);

  h.record(7);
  h.record(100, 3);
  h.record(1000000);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 7u + 300u + 1000000u);
  EXPECT_EQ(h.min(), 7u);
  EXPECT_EQ(h.max(), 1000000u);
  EXPECT_DOUBLE_EQ(h.mean(), (7.0 + 300.0 + 1000000.0) / 5.0);
}

HistogramData random_histogram(u64 seed, int samples) {
  Xoshiro256 rng(seed);
  HistogramData h;
  for (int i = 0; i < samples; ++i) {
    // Mix magnitudes so multiple octaves are populated.
    h.record(rng.next() >> (rng.next_below(56)));
  }
  return h;
}

TEST(TelemetryHistogram, MergeIsCommutative) {
  const HistogramData a = random_histogram(1, 500);
  const HistogramData b = random_histogram(2, 300);
  HistogramData ab = a;
  ab.merge(b);
  HistogramData ba = b;
  ba.merge(a);
  EXPECT_TRUE(ab == ba);
  EXPECT_EQ(ab.count(), a.count() + b.count());
  EXPECT_EQ(ab.sum(), a.sum() + b.sum());
}

TEST(TelemetryHistogram, MergeIsAssociativeWithIdentity) {
  const HistogramData a = random_histogram(3, 400);
  const HistogramData b = random_histogram(4, 200);
  const HistogramData c = random_histogram(5, 100);

  HistogramData ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);

  HistogramData bc = b;
  bc.merge(c);
  HistogramData a_bc = a;
  a_bc.merge(bc);
  EXPECT_TRUE(ab_c == a_bc);

  HistogramData with_identity = a;
  with_identity.merge(HistogramData{});
  EXPECT_TRUE(with_identity == a);
}

TEST(TelemetryHistogram, PercentileWithinBucketErrorBound) {
  // Uniform 1..N: the exact percentile is known, and the histogram's
  // estimate must stay within the 1/32 relative bound (+1 for the
  // integer edges of the exact range).
  constexpr u64 kN = 200000;
  HistogramData h;
  for (u64 v = 1; v <= kN; ++v) h.record(v);
  for (const double p : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    const u64 exact = static_cast<u64>(p / 100.0 * kN);
    const u64 estimate = h.percentile(p);
    const u64 tolerance = exact / 32 + 1;
    EXPECT_NEAR(static_cast<double>(estimate),
                static_cast<double>(exact),
                static_cast<double>(tolerance))
        << "p" << p;
  }
}

TEST(TelemetryHistogram, PercentileClampsIntoObservedRange) {
  HistogramData h;
  h.record(1000);  // single sample: every percentile is that sample
  for (const double p : {0.0, 50.0, 100.0}) {
    EXPECT_EQ(h.percentile(p), 1000u) << p;
  }
}

TEST(TelemetryHistogram, SummaryTextSharedFormat) {
  // The human-readable latency line shared by hulkv-loadgen stderr and
  // hulkv-stats tail/top: fixed field order, unit-tiered durations.
  EXPECT_EQ(format_duration_ns(500), "500ns");
  EXPECT_EQ(format_duration_ns(1500), "1.50us");
  EXPECT_EQ(format_duration_ns(2.5e6), "2.50ms");
  EXPECT_EQ(format_duration_ns(3e9), "3.00s");
  EXPECT_EQ(latency_summary_text(4, 1e6, 5e5, 2e6, 3e6, 4e6),
            "n=4 mean=1.00ms p50=500.00us p90=2.00ms p99=3.00ms "
            "p99.9=4.00ms");

  HistogramData h;
  h.record(1000);
  EXPECT_EQ(h.summary_text(),
            "n=1 mean=1.00us p50=1.00us p90=1.00us p99=1.00us "
            "p99.9=1.00us");
}

TEST(TelemetryHistogram, AtomicMatchesSerialUnderConcurrentRecords) {
  // N threads record disjoint value streams; the merged snapshot must
  // equal the serially-built reference exactly (adds never lost).
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  AtomicHistogram atomic;
  HistogramData expected;
  for (int t = 0; t < kThreads; ++t) {
    Xoshiro256 rng(100 + static_cast<u64>(t));
    for (int i = 0; i < kPerThread; ++i) {
      expected.record(rng.next() >> 32);
    }
  }
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&atomic, t] {
      Xoshiro256 rng(100 + static_cast<u64>(t));
      for (int i = 0; i < kPerThread; ++i) {
        atomic.record(rng.next() >> 32);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  EXPECT_TRUE(atomic.snapshot() == expected);
}

// ---------------------------------------------------------------------
// Spans, the registry, TLS flush.

/// Every span/registry test runs against a clean, disabled registry
/// and leaves it that way (telemetry state is process-global).
class TelemetrySpans : public ::testing::Test {
 protected:
  void SetUp() override {
    registry().reset();
    registry().enable();
  }
  void TearDown() override {
    registry().reset();
    registry().disable();
  }
};

TEST_F(TelemetrySpans, SpanRecordsIntoHistogramAndRetention) {
  {
    const Span span(SpanPhase::kSnapshotSave);
  }
  const HistogramData h = registry().phase_histogram(SpanPhase::kSnapshotSave);
  EXPECT_EQ(h.count(), 1u);
  const std::vector<SpanRecord> spans = registry().spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].phase, SpanPhase::kSnapshotSave);
  EXPECT_EQ(spans[0].depth, 0u);
}

TEST_F(TelemetrySpans, NestedSpansCarryDepth) {
  {
    const Span outer(SpanPhase::kBatchJob);
    {
      const Span inner(SpanPhase::kProgramLoad);
      const Span innermost(SpanPhase::kProgramAnalyze);
    }
  }
  const std::vector<SpanRecord> spans = registry().spans();
  ASSERT_EQ(spans.size(), 3u);
  // Spans close innermost-first on the recording thread.
  EXPECT_EQ(spans[0].phase, SpanPhase::kProgramAnalyze);
  EXPECT_EQ(spans[0].depth, 2u);
  EXPECT_EQ(spans[1].phase, SpanPhase::kProgramLoad);
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[2].phase, SpanPhase::kBatchJob);
  EXPECT_EQ(spans[2].depth, 0u);
  // One thread recorded everything.
  EXPECT_EQ(spans[0].thread, spans[2].thread);
}

TEST_F(TelemetrySpans, TlsBufferFlushesBeyondBatchSize) {
  // More spans than the 256-record TLS buffer: everything must still
  // be visible through spans() (which flushes the calling thread).
  constexpr int kSpans = 300;
  for (int i = 0; i < kSpans; ++i) {
    const Span span(SpanPhase::kBlockTranslate);
  }
  EXPECT_EQ(registry().spans().size(), static_cast<size_t>(kSpans));
  EXPECT_EQ(
      registry().phase_histogram(SpanPhase::kBlockTranslate).count(),
      static_cast<u64>(kSpans));
  EXPECT_EQ(registry().dropped_spans(), 0u);
}

TEST_F(TelemetrySpans, RetentionCapDropsSpansButKeepsHistograms) {
  registry().set_span_capacity(100);
  for (int i = 0; i < 400; ++i) {
    const Span span(SpanPhase::kHostDispatch);
  }
  const std::vector<SpanRecord> spans = registry().spans();
  EXPECT_EQ(spans.size(), 100u);
  EXPECT_EQ(registry().dropped_spans(), 300u);
  // The histogram never drops: aggregate statistics stay exact.
  EXPECT_EQ(registry().phase_histogram(SpanPhase::kHostDispatch).count(),
            400u);
}

TEST_F(TelemetrySpans, DisabledSpansRecordNothing) {
  registry().disable();
  {
    const Span span(SpanPhase::kSnapshotDigest);
  }
  registry().enable();  // re-enable to read (TearDown resets anyway)
  EXPECT_EQ(registry().phase_histogram(SpanPhase::kSnapshotDigest).count(),
            0u);
  EXPECT_TRUE(registry().spans().empty());
}

TEST_F(TelemetrySpans, SpansFromWorkerThreadsGetDistinctLanes) {
  constexpr int kThreads = 3;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([] {
      const Span span(SpanPhase::kBatchJob);
    });  // thread exit flushes its TLS buffer
  }
  for (std::thread& th : pool) th.join();
  const std::vector<SpanRecord> spans = registry().spans();
  ASSERT_EQ(spans.size(), static_cast<size_t>(kThreads));
  // Dense per-thread indices: all distinct.
  for (int a = 0; a < kThreads; ++a) {
    for (int b = a + 1; b < kThreads; ++b) {
      EXPECT_NE(spans[a].thread, spans[b].thread);
    }
  }
}

TEST_F(TelemetrySpans, NoteDeduplicationAndProgramDigests) {
  registry().note_config_fingerprint(42);
  registry().note_config_fingerprint(42);
  registry().note_config_fingerprint(7);
  EXPECT_EQ(registry().config_fingerprints().size(), 2u);

  const u32 words[4] = {1, 2, 3, 4};
  note_program("prog-a", words, sizeof(words));
  note_program("prog-a", words, sizeof(words));  // exact repeat: deduped
  note_program("prog-b", words, sizeof(words));  // same bytes, new name
  const auto digests = registry().program_digests();
  ASSERT_EQ(digests.size(), 2u);
  EXPECT_EQ(digests[0].first, "prog-a");
  EXPECT_EQ(digests[1].first, "prog-b");
  EXPECT_EQ(digests[0].second, digests[1].second);  // same image bytes
}

// ---------------------------------------------------------------------
// JSON reader.

TEST(TelemetryJson, ParsesScalarsContainersAndEscapes) {
  const json::Value v = json::parse(
      R"({"a": 1.5, "b": [true, null, "x\nA"], "nested": {"k": -7}})");
  ASSERT_TRUE(v.is(json::Kind::kObject));
  EXPECT_DOUBLE_EQ(v.find("a")->as_number(), 1.5);
  const json::Array& arr = v.find("b")->as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_TRUE(arr[0].as_bool());
  EXPECT_TRUE(arr[1].is(json::Kind::kNull));
  EXPECT_EQ(arr[2].as_string(), "x\nA");
  EXPECT_DOUBLE_EQ(v.find_path("nested.k")->as_number(), -7.0);
  EXPECT_EQ(v.find_path("nested.missing"), nullptr);
}

TEST(TelemetryJson, KeepsRawNumberTextForExactIntegers) {
  // 2^63-ish fingerprints lose precision as doubles; the raw token
  // text must survive for exact comparisons.
  const json::Value v = json::parse(R"({"d": 13198352154954890827})");
  EXPECT_EQ(v.find("d")->raw_number(), "13198352154954890827");
}

TEST(TelemetryJson, RejectsMalformedInput) {
  EXPECT_THROW(json::parse("{"), SimError);
  EXPECT_THROW(json::parse("[1,]"), SimError);
  EXPECT_THROW(json::parse("{} trailing"), SimError);
  EXPECT_THROW(json::parse("'single'"), SimError);
}

TEST(TelemetryJson, ParsesJsonLines) {
  const std::vector<json::Value> lines =
      json::parse_lines("{\"n\":1}\r\n\n{\"n\":2}\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_DOUBLE_EQ(lines[0].find("n")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(lines[1].find("n")->as_number(), 2.0);
}

// ---------------------------------------------------------------------
// Run manifests.

TEST(TelemetryManifest, BuildSerializeParseRoundTrip) {
  registry().reset();
  registry().enable();
  {
    const Span span(SpanPhase::kProgramLoad);
  }
  registry().note_config_fingerprint(12345);
  const u32 words[2] = {0x13, 0x6f};
  note_program("round-trip", words, sizeof(words));
  SweepSummary sweep;
  sweep.jobs = 8;
  sweep.workers = 2;
  sweep.wall_ns = 1000;
  sweep.busy_ns = 1800;
  sweep.p50_ns = 200;
  sweep.p99_ns = 400;
  sweep.max_in_flight = 2;
  sweep.jobs_per_s = 8e6;
  sweep.utilization = 0.9;
  registry().note_sweep(sweep);

  report::MetricsReport rep("roundtrip_bench");
  rep.add_metric("speedup", report::Value::number(2.5, 2), "x");
  rep.add_metric("label", report::Value::text("not-a-number"));

  const Manifest m = build_manifest(rep, registry());
  registry().reset();
  registry().disable();

  const json::Value v = json::parse(m.to_json_line());
  EXPECT_DOUBLE_EQ(v.find("schema_version")->as_number(),
                   kManifestSchemaVersion);
  // v3: the manifest carries its kind ("bench" by default, "serve"
  // for daemon manifests).
  EXPECT_EQ(v.find("kind")->as_string(), kManifestKindBench);
  EXPECT_EQ(v.find("bench")->as_string(), "roundtrip_bench");
  // v5: one execution path, so no "tier" field.
  EXPECT_EQ(v.find("tier"), nullptr);
  EXPECT_FALSE(v.find_path("host.hostname")->as_string().empty());
  ASSERT_EQ(v.find("config_fingerprints")->as_array().size(), 1u);
  EXPECT_EQ(v.find("config_fingerprints")->as_array()[0].raw_number(),
            "12345");
  const json::Array& digests = v.find("program_digests")->as_array();
  ASSERT_EQ(digests.size(), 1u);
  EXPECT_EQ(digests[0].find("name")->as_string(), "round-trip");
  // Metric digits match the report's own JSON rendering exactly.
  EXPECT_EQ(v.find_path("metrics.speedup.value")->raw_number(), "2.50");
  EXPECT_EQ(v.find_path("metrics.speedup.unit")->as_string(), "x");
  EXPECT_EQ(v.find_path("metrics.label.value")->as_string(),
            "not-a-number");
  // The one recorded span phase is summarised; empty phases are absent.
  ASSERT_NE(v.find_path("phases.program_load"), nullptr);
  EXPECT_DOUBLE_EQ(
      v.find_path("phases.program_load.count")->as_number(), 1.0);
  EXPECT_EQ(v.find_path("phases.block_translate"), nullptr);
  const json::Array& sweeps = v.find("sweeps")->as_array();
  ASSERT_EQ(sweeps.size(), 1u);
  EXPECT_DOUBLE_EQ(sweeps[0].find("jobs")->as_number(), 8.0);
  EXPECT_DOUBLE_EQ(sweeps[0].find("utilization")->as_number(), 0.9);
}

TEST(TelemetryManifest, ServeRequestsSectionRoundTrips) {
  // v4: a serve manifest carries per-request aggregates; a bench
  // manifest (serve_requests.present == false) omits the section.
  Manifest m;
  m.bench = "v4_test";
  m.kind = kManifestKindServe;
  m.serve_requests.present = true;
  m.serve_requests.outcomes = {{"ok", 12}, {"bad_request", 3}};
  Manifest::PhaseSummary stage;
  stage.phase = "queue_wait";
  stage.latency.record(1000);
  stage.latency.record(3000);
  m.serve_requests.stages.push_back(stage);

  const json::Value v = json::parse(m.to_json_line());
  const json::Value* sr = v.find("serve_requests");
  ASSERT_NE(sr, nullptr);
  const json::Value* outcomes = sr->find("outcomes");
  ASSERT_NE(outcomes, nullptr);
  EXPECT_DOUBLE_EQ(outcomes->find("ok")->as_number(), 12.0);
  EXPECT_DOUBLE_EQ(outcomes->find("bad_request")->as_number(), 3.0);
  const json::Value* stages = sr->find("stages");
  ASSERT_NE(stages, nullptr);
  const json::Value* qw = stages->find("queue_wait");
  ASSERT_NE(qw, nullptr);
  EXPECT_DOUBLE_EQ(qw->find("count")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(qw->find("sum")->as_number(), 4000.0);

  Manifest bench;
  bench.bench = "v4_bench";
  EXPECT_EQ(json::parse(bench.to_json_line()).find("serve_requests"),
            nullptr);
}

TEST(TelemetryManifest, AppendManifestAccumulatesJsonLines) {
  char tmpl[] = "/tmp/hulkv_manifest_test.XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;

  Manifest m;
  m.bench = "append_test";
  m.hostname = "unit";
  m.kind = kManifestKindServe;  // v3: non-default kind round-trips
  const std::string path1 = append_manifest(dir, m);
  const std::string path2 = append_manifest(dir, m);
  EXPECT_EQ(path1, path2);
  EXPECT_EQ(path1, dir + "/append_test.jsonl");

  std::ifstream in(path1);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::vector<json::Value> runs = json::parse_lines(text);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[1].find("bench")->as_string(), "append_test");
  EXPECT_EQ(runs[1].find("kind")->as_string(), kManifestKindServe);

  std::remove(path1.c_str());
  rmdir(dir.c_str());
}

// ---------------------------------------------------------------------
// Sweep statistics (TSan-covered via the SweepEngine suite name): each
// run_jobs drain reaches the registry as one SweepSummary.

/// The summaries `fn`'s run_jobs drains hand the registry.
std::vector<SweepSummary> sweeps_of(const std::function<void()>& fn) {
  registry().reset();
  registry().enable();
  fn();
  std::vector<SweepSummary> sweeps = registry().sweeps();
  registry().reset();
  registry().disable();
  return sweeps;
}

TEST(SweepEngineStats, SerialRunJobsMeasuresEveryJob) {
  std::atomic<u64> ran{0};
  const std::vector<SweepSummary> sweeps = sweeps_of(
      [&] { batch::run_jobs(5, 1, [&](u64) { ran.fetch_add(1); }); });
  EXPECT_EQ(ran.load(), 5u);
  ASSERT_EQ(sweeps.size(), 1u);
  const SweepSummary& stats = sweeps[0];
  EXPECT_EQ(stats.jobs, 5u);
  EXPECT_EQ(stats.workers, 1u);
  EXPECT_LE(stats.p50_ns, stats.p99_ns);
  EXPECT_GT(stats.wall_ns, 0u);
  EXPECT_GT(stats.busy_ns, 0u);
  EXPECT_EQ(stats.max_in_flight, 1u);  // serial: never concurrent
}

TEST(SweepEngineStats, ParallelRunJobsBoundsInFlightByWorkers) {
  constexpr u64 kJobs = 32;
  constexpr u32 kWorkers = 4;
  std::atomic<u64> ran{0};
  const std::vector<SweepSummary> sweeps = sweeps_of([&] {
    batch::run_jobs(kJobs, kWorkers, [&](u64) { ran.fetch_add(1); });
  });
  EXPECT_EQ(ran.load(), kJobs);
  ASSERT_EQ(sweeps.size(), 1u);
  const SweepSummary& stats = sweeps[0];
  EXPECT_EQ(stats.jobs, kJobs);
  EXPECT_EQ(stats.workers, kWorkers);
  EXPECT_LE(stats.p50_ns, stats.p99_ns);
  EXPECT_GE(stats.max_in_flight, 1u);
  EXPECT_LE(stats.max_in_flight, kWorkers);
  EXPECT_GT(stats.utilization, 0.0);
}

TEST(SweepEngineStats, StatsReportCarriesHeadlineMetrics) {
  const batch::SweepEngine engine(2);
  std::vector<int> out;
  const std::vector<SweepSummary> sweeps = sweeps_of([&] {
    out = engine.map<int>(6, [](u64 index) { return static_cast<int>(index); });
  });
  EXPECT_EQ(out.size(), 6u);
  ASSERT_EQ(sweeps.size(), 1u);
  const SweepSummary& stats = sweeps[0];
  EXPECT_EQ(stats.jobs, 6u);
  EXPECT_EQ(stats.workers, 2u);
  EXPECT_GT(stats.jobs_per_s, 0.0);
  EXPECT_GT(stats.utilization, 0.0);
  EXPECT_LE(stats.p50_ns, stats.p99_ns);
  EXPECT_GE(stats.max_in_flight, 1u);
  EXPECT_LE(stats.max_in_flight, 2u);
}

TEST(SweepEngineStats, SweepSummaryReachesTelemetryRegistry) {
  registry().reset();
  registry().enable();
  batch::run_jobs(4, 2, [](u64) {});
  const std::vector<SweepSummary> sweeps = registry().sweeps();
  registry().reset();
  registry().disable();
  ASSERT_EQ(sweeps.size(), 1u);
  EXPECT_EQ(sweeps[0].jobs, 4u);
  EXPECT_EQ(sweeps[0].workers, 2u);
  // Jobs also landed in the batch-job span histogram.
}

TEST(SweepEngineStats, EmptyRunClearsLastStats) {
  // A drain with no jobs adds no summary; the one before it stands.
  const std::vector<SweepSummary> sweeps = sweeps_of([] {
    batch::run_jobs(3, 1, [](u64) {});
    batch::run_jobs(0, 4, [](u64) { FAIL() << "no jobs expected"; });
  });
  ASSERT_EQ(sweeps.size(), 1u);
  EXPECT_EQ(sweeps[0].jobs, 3u);
}

}  // namespace
}  // namespace hulkv::telemetry
