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

/// Steady-clock nanoseconds as trace microseconds, three decimals.
void write_wall_us(std::ostream& os, u64 ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1000.0);
  os << buf;
}

/// One simulated cycle is one trace microsecond, so cycle numbers stay
/// integers in the viewer.
void write_common(std::ostream& os, const Event& e) {
  os << "{\"name\":\"" << event_name(e.type) << "\",\"cat\":\"hulkv\""
     << ",\"pid\":1,\"tid\":" << (e.track + 1) << ",\"ts\":" << e.ts;
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

/// pid 2: the telemetry registry's retained host spans, one lane per
/// host thread. The retained span buffer is flushed and copied here, so
/// the export sees everything recorded up to this call.
void write_telemetry_spans(ChromeTraceWriter& out) {
  const telemetry::Registry& reg = telemetry::registry();
  const std::vector<telemetry::SpanRecord> spans = reg.spans();
  if (spans.empty()) return;
  constexpr u32 kPid = 2;
  out.process_name(kPid, "hulkv-host (wall clock)");
  u32 max_thread = 0;
  for (const telemetry::SpanRecord& s : spans) {
    max_thread = std::max(max_thread, s.thread);
  }
  for (u32 t = 0; t <= max_thread; ++t) {
    out.thread_name(kPid, t + 1, "host-thread-" + std::to_string(t));
  }
  out.clock_anchor(kPid, "hulkv-host", reg.wall_anchor_ns(),
                   reg.steady_anchor_ns());
  for (const telemetry::SpanRecord& s : spans) {
    out.wall_slice(kPid, s.thread + 1, telemetry::phase_name(s.phase),
                   "hulkv-host", s.start_ns, s.dur_ns,
                   "{\"depth\":" + std::to_string(s.depth) + "}");
  }
}

}  // namespace

ChromeTraceWriter::ChromeTraceWriter(std::ostream& os) : os_(os) {
  os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
}

std::ostream& ChromeTraceWriter::event() {
  if (!first_) os_ << ",\n";
  first_ = false;
  return os_;
}

void ChromeTraceWriter::process_name(u32 pid, std::string_view name) {
  event() << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
          << ",\"args\":{\"name\":" << json_quote(name) << "}}";
}

void ChromeTraceWriter::thread_name(u32 pid, u32 tid, std::string_view name) {
  event() << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
          << ",\"tid\":" << tid << ",\"args\":{\"name\":" << json_quote(name)
          << "}}";
}

void ChromeTraceWriter::clock_anchor(u32 pid, std::string_view cat,
                                     u64 wall_epoch_ns,
                                     u64 steady_anchor_ns) {
  event() << "{\"name\":\"clock_anchor\",\"cat\":" << json_quote(cat)
          << ",\"ph\":\"i\",\"s\":\"p\",\"pid\":" << pid
          << ",\"tid\":1,\"ts\":0,\"args\":{\"wall_epoch_ns\":"
          << wall_epoch_ns << ",\"steady_anchor_ns\":" << steady_anchor_ns
          << "}}";
}

void ChromeTraceWriter::wall_slice(u32 pid, u32 tid, std::string_view name,
                                   std::string_view cat, u64 start_ns,
                                   u64 dur_ns, std::string_view args) {
  std::ostream& os = event();
  os << "{\"name\":" << json_quote(name) << ",\"cat\":" << json_quote(cat)
     << ",\"pid\":" << pid << ",\"tid\":" << tid << ",\"ts\":";
  write_wall_us(os, start_ns);
  os << ",\"ph\":\"X\",\"dur\":";
  write_wall_us(os, dur_ns);
  os << ",\"args\":" << args << "}";
}

void ChromeTraceWriter::finish() { os_ << "]}\n"; }

void write_chrome_trace(std::ostream& os, const TraceSink& sink) {
  ChromeTraceWriter out(os);

  // One named thread per track so viewers show labelled swimlanes.
  const auto& tracks = sink.track_names();
  for (u32 t = 0; t < tracks.size(); ++t) {
    out.thread_name(1, t + 1, tracks[t]);
  }
  out.process_name(1, "hulkv-soc");

  // Counter events carry deltas in the sink; the trace_event "C" phase
  // wants absolute values, so accumulate per (track, type).
  std::vector<std::array<u64, kNumEventTypes>> totals(tracks.size());

  for (const Event& e : sink.events()) {
    std::ostream& ev = out.event();
    switch (event_phase(e.type)) {
      case Phase::kComplete:
        write_common(ev, e);
        ev << ",\"ph\":\"X\",\"dur\":" << e.dur;
        write_args(ev, e);
        ev << "}";
        break;
      case Phase::kInstant:
        write_common(ev, e);
        ev << ",\"ph\":\"i\",\"s\":\"t\"";
        write_args(ev, e);
        ev << "}";
        break;
      case Phase::kCounter: {
        u64& total = totals[e.track][static_cast<size_t>(e.type)];
        total += e.value;
        write_common(ev, e);
        ev << ",\"ph\":\"C\",\"args\":{\"value\":" << total << "}}";
        break;
      }
    }
  }

  write_telemetry_spans(out);
  out.finish();
}

void write_chrome_trace_file(const std::string& path, const TraceSink& sink) {
  std::ofstream out(path);
  if (!out) throw SimError("cannot open trace output file: " + path);
  write_chrome_trace(out, sink);
}

}  // namespace hulkv::trace
