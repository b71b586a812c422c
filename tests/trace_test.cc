// hulkv::trace: sink semantics, cycle parity with tracing off/on,
// Perfetto/Chrome export well-formedness, and event totals vs
// StatGroup totals.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "core/soc.hpp"
#include "isa/assembler.hpp"
#include "kernels/cluster_kernels.hpp"
#include "kernels/host_kernels.hpp"
#include "kernels/kernel.hpp"
#include "runtime/offload.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/trace.hpp"

namespace hulkv {
namespace {

/// Isolates a test's use of the process-global sink.
struct TraceGuard {
  TraceGuard() {
    trace::sink().clear();
    trace::sink().enable();
  }
  ~TraceGuard() {
    trace::sink().disable();
    trace::sink().clear();
  }
};

// ---------------------------------------------------------------------
// Sink semantics
// ---------------------------------------------------------------------

TEST(TraceSink, DisabledByDefault) { EXPECT_FALSE(trace::enabled()); }

TEST(TraceSink, RecordsAndTimestampsAreMonotonePerEmitter) {
  TraceGuard guard;
  auto& sink = trace::sink();
  const u32 track = sink.track("t0");
  sink.instant(track, trace::Ev::kMiss, 10, 1);
  sink.complete(track, trace::Ev::kRun, 20, 120, 7);
  sink.counter(track, trace::Ev::kCommitBatch, 50, 256);
  ASSERT_EQ(sink.events().size(), 3u);
  EXPECT_EQ(sink.events()[0].ts, 10u);
  EXPECT_EQ(sink.events()[1].dur, 100u);
  EXPECT_EQ(sink.events()[2].value, 256u);
  // Emission order is preserved and max_timestamp tracks event *ends*.
  EXPECT_EQ(sink.max_timestamp(), 120u);
  sink.instant(track, trace::Ev::kMiss, 60);
  EXPECT_EQ(sink.max_timestamp(), 120u);  // earlier instant cannot regress it
}

TEST(TraceSink, CompleteClampsReversedInterval) {
  TraceGuard guard;
  auto& sink = trace::sink();
  sink.complete(sink.track("t"), trace::Ev::kDmaJob, 100, 40);
  EXPECT_EQ(sink.events()[0].dur, 0u);
}

TEST(TraceSink, TrackInterningIsStable) {
  TraceGuard guard;
  auto& sink = trace::sink();
  const u32 a = sink.track("alpha");
  const u32 b = sink.track("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(sink.track("alpha"), a);
  EXPECT_EQ(sink.find_track("beta"), b);
  EXPECT_EQ(sink.find_track("gamma"), trace::kNoTrack);
}

TEST(TraceSink, HandleResolvesOnceAndSurvivesClear) {
  TraceGuard guard;
  auto& sink = trace::sink();
  trace::TrackHandle handle;
  const u32 id = sink.resolve(handle, "block");
  EXPECT_EQ(sink.resolve(handle, "block"), id);
  sink.clear();  // invalidates all track ids
  EXPECT_EQ(sink.find_track("block"), trace::kNoTrack);
  const u32 fresh = sink.resolve(handle, "block");  // re-interns
  EXPECT_EQ(sink.find_track("block"), fresh);
}

TEST(TraceSink, CapacityCapCountsDrops) {
  TraceGuard guard;
  auto& sink = trace::sink();
  sink.set_capacity(4);
  const u32 track = sink.track("t");
  for (int i = 0; i < 10; ++i) {
    sink.instant(track, trace::Ev::kMiss, static_cast<Cycles>(i));
  }
  EXPECT_EQ(sink.events().size(), 4u);
  EXPECT_EQ(sink.dropped(), 6u);
  sink.set_capacity(size_t{4} << 20);  // restore the default
}

TEST(TraceSink, XactArgRoundTrips) {
  const trace::XactArg arg{true, 123, 45};
  const trace::XactArg back = trace::unpack_xact_arg(trace::pack_xact_arg(arg));
  EXPECT_EQ(back.write, arg.write);
  EXPECT_EQ(back.bursts, arg.bursts);
  EXPECT_EQ(back.refresh_collisions, arg.refresh_collisions);
}

// ---------------------------------------------------------------------
// A small offload workload (the flagship heterogeneous path)
// ---------------------------------------------------------------------

struct WorkloadResult {
  Cycles host_cycles = 0;
  u64 host_instret = 0;
  Cycles cold_total = 0;
  Cycles warm_total = 0;
  u64 cluster_instret = 0;
  Cycles end_time = 0;
  u64 llc_hits = 0, llc_misses = 0;
  u64 tcdm_conflicts = 0;
  u64 hyper_bytes = 0;
  Cycles hyper_busy = 0;
};

/// Host int32 matmul + two int8 PMCA offloads on the shipped SoC
/// (HyperRAM + LLC), same shape as examples/offload_matmul.
WorkloadResult run_offload_workload() {
  const u32 m = 32, n = 32, k = 32;
  core::HulkVSoc soc;
  runtime::OffloadRuntime rt(&soc);
  Xoshiro256 rng(99);

  std::vector<i8> a(m * k), bt(n * k);
  for (auto& v : a) v = static_cast<i8>(rng.next_range(-128, 127));
  for (auto& v : bt) v = static_cast<i8>(rng.next_range(-128, 127));
  const Addr pa = rt.hulk_malloc(a.size());
  const Addr pbt = rt.hulk_malloc(bt.size());
  const Addr pc = rt.hulk_malloc(u64{m} * n * 4);
  soc.write_mem(pa, a.data(), a.size());
  soc.write_mem(pbt, bt.data(), bt.size());

  std::vector<i32> a32(m * k), b32(k * n);
  for (u32 i = 0; i < m * k; ++i) a32[i] = a[i];
  for (u32 row = 0; row < k; ++row) {
    for (u32 col = 0; col < n; ++col) b32[row * n + col] = bt[col * k + row];
  }
  const Addr qa = rt.hulk_malloc(a32.size() * 4);
  const Addr qb = rt.hulk_malloc(b32.size() * 4);
  const Addr qc = rt.hulk_malloc(u64{m} * n * 4);
  soc.write_mem(qa, a32.data(), a32.size() * 4);
  soc.write_mem(qb, b32.data(), b32.size() * 4);

  WorkloadResult out;
  const auto host_run = kernels::run_host_program(
      soc, kernels::host_matmul_i32(m, n, k).words,
      std::array<u64, 3>{qa, qb, qc});
  out.host_cycles = host_run.cycles;
  out.host_instret = host_run.instret;

  const u32 tcdm = static_cast<u32>(mem::map::kTcdmBase);
  const u32 a_l1 = tcdm + 0x100;
  const auto handle = rt.register_kernel(
      "mm", kernels::cluster_matmul_i8(m, n, k).words);
  const std::array<u32, 6> args = {
      static_cast<u32>(pa), static_cast<u32>(pbt), static_cast<u32>(pc),
      a_l1, a_l1 + m * k, a_l1 + m * k + n * k};
  const auto cold = rt.offload(handle, args);
  const auto warm = rt.offload(handle, args);
  out.cold_total = cold.total;
  out.warm_total = warm.total;
  out.cluster_instret = cold.cluster_instret + warm.cluster_instret;
  out.end_time = soc.host().now();

  out.llc_hits = soc.llc()->stats().get("hits");
  out.llc_misses = soc.llc()->stats().get("misses");
  out.tcdm_conflicts = soc.cluster().tcdm().stats().get("conflicts");
  out.hyper_bytes = soc.hyperram()->stats().get("bytes_read") +
                    soc.hyperram()->stats().get("bytes_written");
  out.hyper_busy = soc.hyperram()->stats().get("busy_cycles");
  return out;
}

// ---------------------------------------------------------------------
// Cycle parity: tracing must not perturb the simulation
// ---------------------------------------------------------------------

TEST(TraceParity, EnabledAndDisabledRunsAreBitIdentical) {
  trace::sink().disable();
  trace::sink().clear();
  const WorkloadResult off = run_offload_workload();
  EXPECT_EQ(trace::sink().events().size(), 0u);

  TraceGuard guard;
  const WorkloadResult on = run_offload_workload();
  EXPECT_GT(trace::sink().events().size(), 0u);

  EXPECT_EQ(off.host_cycles, on.host_cycles);
  EXPECT_EQ(off.host_instret, on.host_instret);
  EXPECT_EQ(off.cold_total, on.cold_total);
  EXPECT_EQ(off.warm_total, on.warm_total);
  EXPECT_EQ(off.end_time, on.end_time);
  EXPECT_EQ(off.llc_hits, on.llc_hits);
  EXPECT_EQ(off.hyper_bytes, on.hyper_bytes);
}

/// Drives both ISS block-dispatch loops hard: a branchy host loop and a
/// hardware-loop cluster kernel on all 8 cores. Returns every
/// timing-visible number the dispatch loops produce.
struct DispatchResult {
  Cycles host_cycles = 0;
  u64 host_instret = 0;
  Cycles kernel_cycles = 0;
  u64 kernel_instret = 0;
  std::vector<Cycles> core_now;
};

DispatchResult run_block_dispatch_workload() {
  using namespace isa::reg;
  core::SocConfig cfg;
  cfg.main_memory = core::MainMemoryKind::kDdr4;
  core::HulkVSoc soc(cfg);

  isa::Assembler h(core::layout::kHostCodeBase, /*rv64=*/true);
  h.li(t0, 500);
  h.li(t1, 0);
  h.label("loop");
  h.addi(t1, t1, 1);
  h.addi(t0, t0, -1);
  h.bnez(t0, "loop");
  h.li(a7, 93);
  h.li(a0, 0);
  h.ecall();
  const auto host_run =
      kernels::run_host_program(soc, h.assemble(), {});

  isa::Assembler k(0, /*rv64=*/false);
  k.li(t0, 0);
  k.li(t1, 3);
  k.lp_counti(0, 100);
  k.lp_starti(0, "body");
  k.lp_endi(0, "end");
  k.label("body");
  k.rr(isa::Op::kPMac, t0, t1, t1);
  k.addi(t2, t2, 1);
  k.label("end");
  k.addi(t3, t3, 1);
  k.li(a7, cluster::envcall::kExit);
  k.ecall();
  soc.load_program(mem::map::kL2Base, k.assemble());
  const auto kr =
      soc.cluster().run_kernel(soc.host().now(), mem::map::kL2Base, 0);

  DispatchResult out;
  out.host_cycles = host_run.cycles;
  out.host_instret = host_run.instret;
  out.kernel_cycles = kr.cycles;
  out.kernel_instret = kr.instret;
  for (u32 c = 0; c < soc.cluster().num_cores(); ++c) {
    out.core_now.push_back(soc.cluster().core(c).now());
  }
  return out;
}

TEST(TraceParity, BlockDispatchLoopsAreCycleIdenticalWithTracing) {
  trace::sink().disable();
  trace::sink().clear();
  const DispatchResult off = run_block_dispatch_workload();

  TraceGuard guard;
  const DispatchResult on = run_block_dispatch_workload();
  EXPECT_GT(trace::sink().events().size(), 0u);

  EXPECT_EQ(off.host_cycles, on.host_cycles);
  EXPECT_EQ(off.host_instret, on.host_instret);
  EXPECT_EQ(off.kernel_cycles, on.kernel_cycles);
  EXPECT_EQ(off.kernel_instret, on.kernel_instret);
  ASSERT_EQ(off.core_now.size(), on.core_now.size());
  for (size_t c = 0; c < off.core_now.size(); ++c) {
    EXPECT_EQ(off.core_now[c], on.core_now[c]) << "core " << c;
  }
}

// ---------------------------------------------------------------------
// Acceptance: track coverage and event volume on the flagship workload
// ---------------------------------------------------------------------

TEST(TraceCoverage, OffloadRunCoversSocTracksWithEnoughEvents) {
  TraceGuard guard;
  run_offload_workload();
  auto& sink = trace::sink();
  EXPECT_GE(sink.track_names().size(), 6u);
  EXPECT_GE(sink.events().size(), 1000u);
  for (const char* name : {"cva6", "pmca_core0", "pmca_core7", "llc",
                           "hyperram", "cluster_dma", "offload",
                           "event_unit", "tcdm", "host_l1d"}) {
    EXPECT_NE(sink.find_track(name), trace::kNoTrack) << name;
  }
  EXPECT_EQ(sink.dropped(), 0u);
}

// ---------------------------------------------------------------------
// Event totals == StatGroup totals (unbatched event classes, plus the
// batched commit stream which is flushed at run boundaries)
// ---------------------------------------------------------------------

/// Event count, summed values and summed durations of one (track, type).
struct EventTotals {
  u64 count = 0;
  u64 value = 0;
  Cycles busy = 0;
};

EventTotals totals(const trace::TraceSink& sink, u32 track, trace::Ev type) {
  EventTotals t;
  for (const trace::Event& e : sink.events()) {
    if (e.track != track || e.type != type) continue;
    ++t.count;
    t.value += e.value;
    t.busy += e.dur;
  }
  return t;
}

TEST(TraceTotals, WindowedSumsMatchStatCounters) {
  TraceGuard guard;
  const WorkloadResult run = run_offload_workload();
  auto& sink = trace::sink();

  const u32 llc = sink.find_track("llc");
  ASSERT_NE(llc, trace::kNoTrack);
  EXPECT_EQ(totals(sink, llc, trace::Ev::kHit).count, run.llc_hits);
  EXPECT_EQ(totals(sink, llc, trace::Ev::kMiss).count, run.llc_misses);

  const u32 tcdm = sink.find_track("tcdm");
  ASSERT_NE(tcdm, trace::kNoTrack);
  EXPECT_EQ(totals(sink, tcdm, trace::Ev::kConflict).count,
            run.tcdm_conflicts);

  const u32 hyper = sink.find_track("hyperram");
  ASSERT_NE(hyper, trace::kNoTrack);
  const EventTotals xacts = totals(sink, hyper, trace::Ev::kMemXact);
  EXPECT_EQ(xacts.value, run.hyper_bytes);
  EXPECT_EQ(xacts.busy, run.hyper_busy);

  // Commit batches flush at run/kernel boundaries, so their sum equals
  // retired instructions exactly.
  const u32 cva6 = sink.find_track("cva6");
  ASSERT_NE(cva6, trace::kNoTrack);
  EXPECT_EQ(totals(sink, cva6, trace::Ev::kCommitBatch).value,
            run.host_instret);
  EXPECT_EQ(totals(sink, cva6, trace::Ev::kRun).value, run.host_instret);

  u64 pmca_commits = 0;
  for (int c = 0; c < 8; ++c) {
    const u32 track = sink.find_track("pmca_core" + std::to_string(c));
    ASSERT_NE(track, trace::kNoTrack);
    pmca_commits += totals(sink, track, trace::Ev::kCommitBatch).value;
  }
  EXPECT_EQ(pmca_commits, run.cluster_instret);
}

// ---------------------------------------------------------------------
// Chrome/Perfetto export: parse the JSON back
// ---------------------------------------------------------------------

/// Minimal JSON syntax validator (objects, arrays, strings, numbers,
/// literals) — enough to prove the exporter emits well-formed JSON.
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return p_ == end_;
  }

 private:
  void skip_ws() {
    while (p_ < end_ && std::isspace(static_cast<unsigned char>(*p_))) ++p_;
  }
  bool consume(char c) {
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }
  bool literal(std::string_view word) {
    if (end_ - p_ < static_cast<long>(word.size())) return false;
    if (std::string_view(p_, word.size()) != word) return false;
    p_ += word.size();
    return true;
  }
  bool string() {
    if (!consume('"')) return false;
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ >= end_) return false;
      }
      ++p_;
    }
    return consume('"');
  }
  bool number() {
    const char* start = p_;
    if (p_ < end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    bool digits = false;
    while (p_ < end_ && (std::isdigit(static_cast<unsigned char>(*p_)) ||
                         *p_ == '.' || *p_ == 'e' || *p_ == 'E' ||
                         *p_ == '-' || *p_ == '+')) {
      digits = digits || std::isdigit(static_cast<unsigned char>(*p_));
      ++p_;
    }
    return digits && p_ != start;
  }
  bool object() {
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!consume(':')) return false;
      if (!value()) return false;
      skip_ws();
      if (consume(',')) continue;
      return consume('}');
    }
  }
  bool array() {
    if (!consume('[')) return false;
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      if (!value()) return false;
      skip_ws();
      if (consume(',')) continue;
      return consume(']');
    }
  }
  bool value() {
    skip_ws();
    if (p_ >= end_) return false;
    switch (*p_) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  const char* p_;
  const char* end_;
};

size_t count_occurrences(const std::string& haystack,
                         const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(ChromeTrace, ExportIsWellFormedJsonWithNamedTracks) {
  TraceGuard guard;
  run_offload_workload();
  std::ostringstream os;
  trace::write_chrome_trace(os, trace::sink());
  const std::string json = os.str();

  EXPECT_TRUE(JsonValidator(json).valid());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // One thread_name metadata record per track, >= the 6 acceptance
  // tracks; and plenty of payload events.
  EXPECT_GE(count_occurrences(json, "\"thread_name\""), 6u);
  for (const char* name : {"\"cva6\"", "\"pmca_core0\"", "\"llc\"",
                           "\"hyperram\"", "\"cluster_dma\"",
                           "\"offload\""}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  EXPECT_GE(count_occurrences(json, "\"ph\":"), 1000u);
}

TEST(ChromeTrace, EmptySinkStillProducesValidJson) {
  TraceGuard guard;
  std::ostringstream os;
  trace::write_chrome_trace(os, trace::sink());
  EXPECT_TRUE(JsonValidator(os.str()).valid());
}

/// Isolates a test's use of the process-global telemetry registry.
struct TelemetryGuard {
  TelemetryGuard() {
    telemetry::registry().reset();
    telemetry::registry().enable();
  }
  ~TelemetryGuard() {
    telemetry::registry().disable();
    telemetry::registry().reset();
  }
};

// pid 2 is the telemetry registry's retained host spans on the wall
// clock: its process name, one lane per host thread, one clock anchor
// holding the registry's two anchors, and one slice per span.
TEST(ChromeTrace, HostSpansExportAsProcessTwo) {
  const TelemetryGuard guard;
  const auto run_host = [] {
    using namespace isa::reg;
    isa::Assembler a(core::layout::kHostCodeBase, /*rv64=*/true);
    a.li(t0, 100);
    a.label("loop");
    a.addi(t0, t0, -1);
    a.bnez(t0, "loop");
    a.li(a0, 0);
    a.li(a7, 93);
    a.ecall();
    core::HulkVSoc soc;
    kernels::run_host_program(soc, a.assemble(), {});
  };
  run_host();                       // the test's own thread
  std::thread(run_host).join();     // a second host thread
  const std::vector<telemetry::SpanRecord> spans =
      telemetry::registry().spans();
  std::ostringstream os;
  trace::write_chrome_trace(os, trace::sink());
  const std::string text = os.str();

  std::set<u32> span_threads;
  u32 max_thread = 0;
  for (const telemetry::SpanRecord& s : spans) {
    span_threads.insert(s.thread);
    max_thread = std::max(max_thread, s.thread);
  }
  ASSERT_EQ(span_threads.size(), 2u);

  int process_names = 0;
  std::set<u32> lanes;
  std::vector<const telemetry::json::Value*> anchors;
  std::vector<const telemetry::json::Value*> slices;
  const telemetry::json::Value doc = telemetry::json::parse(text);
  for (const telemetry::json::Value& e : doc.find("traceEvents")->as_array()) {
    if (e.find("pid")->as_number() != 2.0) continue;
    const std::string& name = e.find("name")->as_string();
    if (name == "process_name") {
      ++process_names;
      EXPECT_EQ(e.find_path("args.name")->as_string(),
                "hulkv-host (wall clock)");
    } else if (name == "thread_name") {
      const u32 tid = static_cast<u32>(e.find("tid")->as_number());
      EXPECT_TRUE(lanes.insert(tid).second) << "lane " << tid;
      EXPECT_EQ(e.find_path("args.name")->as_string(),
                "host-thread-" + std::to_string(tid - 1));
    } else if (name == "clock_anchor") {
      anchors.push_back(&e);
    } else {
      ASSERT_EQ(e.find("ph")->as_string(), "X") << name;
      slices.push_back(&e);
    }
  }
  EXPECT_EQ(process_names, 1);
  // Lanes run from the first host thread index to the last that
  // recorded a span.
  std::set<u32> want_lanes;
  for (u32 t = 0; t <= max_thread; ++t) want_lanes.insert(t + 1);
  EXPECT_EQ(lanes, want_lanes);

  ASSERT_EQ(anchors.size(), 1u);
  // The anchors are ns since the epoch, past a double's exact range:
  // compare the written digits.
  EXPECT_NE(text.find("\"args\":{\"wall_epoch_ns\":" +
                      std::to_string(telemetry::registry().wall_anchor_ns()) +
                      ",\"steady_anchor_ns\":" +
                      std::to_string(
                          telemetry::registry().steady_anchor_ns()) +
                      "}"),
            std::string::npos);

  ASSERT_EQ(slices.size(), spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const telemetry::json::Value& e = *slices[i];
    EXPECT_EQ(e.find("name")->as_string(),
              telemetry::phase_name(spans[i].phase))
        << i;
    EXPECT_EQ(e.find("tid")->as_number(), spans[i].thread + 1.0) << i;
    EXPECT_EQ(e.find_path("args.depth")->as_number(),
              static_cast<double>(spans[i].depth))
        << i;
    EXPECT_NEAR(e.find("ts")->as_number() * 1000.0,
                static_cast<double>(spans[i].start_ns), 1.0)
        << i;
    EXPECT_NEAR(e.find("dur")->as_number() * 1000.0,
                static_cast<double>(spans[i].dur_ns), 1.0)
        << i;
  }
}

}  // namespace
}  // namespace hulkv
