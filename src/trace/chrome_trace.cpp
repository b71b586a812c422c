#include "trace/chrome_trace.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <vector>

#include "common/json_quote.hpp"
#include "telemetry/telemetry.hpp"

namespace hulkv::trace {

namespace {

/// Format a cycle timestamp in microseconds. With the default 1 cycle =
/// 1 us mapping this prints exact integers.
void write_us(std::ostream& os, Cycles cycles, double cycles_per_us) {
  if (cycles_per_us == 1.0) {
    os << cycles;
    return;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(cycles) / cycles_per_us);
  os << buf;
}

void write_common(std::ostream& os, const Event& e, double cycles_per_us) {
  os << "{\"name\":\"" << event_name(e.type) << "\",\"cat\":\"hulkv\""
     << ",\"pid\":1,\"tid\":" << (e.track + 1) << ",\"ts\":";
  write_us(os, e.ts, cycles_per_us);
}

void write_args(std::ostream& os, const Event& e) {
  if (e.type == Ev::kMemXact) {
    const XactArg x = unpack_xact_arg(e.arg);
    os << ",\"args\":{\"bytes\":" << e.value
       << ",\"write\":" << (x.write ? 1 : 0) << ",\"bursts\":" << x.bursts
       << ",\"refresh_collisions\":" << x.refresh_collisions << "}";
    return;
  }
  os << ",\"args\":{\"value\":" << e.value;
  if (e.arg != 0) os << ",\"arg\":" << e.arg;
  os << "}";
}

}  // namespace

void write_chrome_trace(std::ostream& os, const TraceSink& sink,
                        const ChromeTraceOptions& options) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit_sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  // One named thread per track so viewers show labelled swimlanes.
  const auto& tracks = sink.track_names();
  for (u32 t = 0; t < tracks.size(); ++t) {
    emit_sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
       << (t + 1) << ",\"args\":{\"name\":" << json_quote(tracks[t])
       << "}}";
  }
  emit_sep();
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
        "\"args\":{\"name\":\"hulkv-soc\"}}";

  // Counter events carry deltas in the sink; the trace_event "C" phase
  // wants absolute values, so accumulate per (track, type).
  std::vector<std::array<u64, kNumEventTypes>> totals(tracks.size());

  for (const Event& e : sink.events()) {
    emit_sep();
    switch (event_phase(e.type)) {
      case Phase::kComplete:
        write_common(os, e, options.cycles_per_us);
        os << ",\"ph\":\"X\",\"dur\":";
        write_us(os, e.dur, options.cycles_per_us);
        write_args(os, e);
        os << "}";
        break;
      case Phase::kInstant:
        write_common(os, e, options.cycles_per_us);
        os << ",\"ph\":\"i\",\"s\":\"t\"";
        write_args(os, e);
        os << "}";
        break;
      case Phase::kCounter: {
        u64& total = totals[e.track][static_cast<size_t>(e.type)];
        total += e.value;
        write_common(os, e, options.cycles_per_us);
        os << ",\"ph\":\"C\",\"args\":{\"value\":" << total << "}}";
        break;
      }
    }
  }

  // Host-side telemetry spans: a second process on the wall clock. The
  // retained span buffer is flushed and copied here, so the export sees
  // everything recorded up to this call.
  if (options.host_spans) {
    const std::vector<telemetry::SpanRecord> spans =
        telemetry::registry().spans();
    if (!spans.empty()) {
      emit_sep();
      os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
            "\"args\":{\"name\":\"hulkv-host (wall clock)\"}}";
      u32 max_thread = 0;
      for (const telemetry::SpanRecord& s : spans) {
        max_thread = std::max(max_thread, static_cast<u32>(s.thread));
      }
      for (u32 t = 0; t <= max_thread; ++t) {
        emit_sep();
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":"
           << (t + 1) << ",\"args\":{\"name\":\"host-thread-" << t
           << "\"}}";
      }
      // Clock anchor: span timestamps are steady-clock ns relative to
      // telemetry enable; wall_epoch_ns is the matching wall-clock
      // epoch instant, so post-processing can place spans in absolute
      // time (and correlate manifests from the same run).
      emit_sep();
      os << "{\"name\":\"clock_anchor\",\"cat\":\"hulkv-host\","
            "\"ph\":\"i\",\"s\":\"p\",\"pid\":2,\"tid\":1,\"ts\":0,"
            "\"args\":{\"wall_epoch_ns\":"
         << telemetry::registry().wall_anchor_ns()
         << ",\"steady_anchor_ns\":"
         << telemetry::registry().steady_anchor_ns() << "}}";
      char buf[48];
      for (const telemetry::SpanRecord& s : spans) {
        emit_sep();
        os << "{\"name\":\"" << telemetry::phase_name(s.phase)
           << "\",\"cat\":\"hulkv-host\",\"pid\":2,\"tid\":"
           << (static_cast<u32>(s.thread) + 1) << ",\"ts\":";
        std::snprintf(buf, sizeof(buf), "%.3f",
                      static_cast<double>(s.start_ns) / 1000.0);
        os << buf << ",\"ph\":\"X\",\"dur\":";
        std::snprintf(buf, sizeof(buf), "%.3f",
                      static_cast<double>(s.dur_ns) / 1000.0);
        os << buf << ",\"args\":{\"depth\":" << static_cast<u32>(s.depth)
           << "}}";
      }
    }
  }
  os << "]}\n";
}

void write_chrome_trace_file(const std::string& path, const TraceSink& sink,
                             const ChromeTraceOptions& options) {
  std::ofstream out(path);
  if (!out) throw SimError("cannot open trace output file: " + path);
  write_chrome_trace(out, sink, options);
}

}  // namespace hulkv::trace
