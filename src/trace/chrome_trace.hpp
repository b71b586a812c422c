// Perfetto / Chrome `trace_event` JSON: the one writer of it.
//
// The output is the JSON-object form ({"traceEvents": [...]}), one event
// per line, that chrome://tracing and https://ui.perfetto.dev load. It
// holds up to three processes:
//
//   pid 1  "hulkv-soc": a TraceSink's simulated events, one named thread
//          per track; one cycle is one microsecond.
//   pid 2  "hulkv-host (wall clock)": telemetry's retained host spans,
//          one lane per host thread.
//   pid 3  "hulkv-serve (wall clock)": the serve daemon's completed
//          requests (the kTrace payload, serve/obs.hpp).
//
// Wall-clock slices are steady-clock ns relative to an anchor, written in
// microseconds with three decimals; a `clock_anchor` instant pairs that
// anchor with its wall-clock epoch instant.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "trace/trace.hpp"

namespace hulkv::trace {

/// One trace_event document: the constructor opens it, each call adds
/// one event, finish() closes it.
class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(std::ostream& os);

  void process_name(u32 pid, std::string_view name);
  void thread_name(u32 pid, u32 tid, std::string_view name);
  void clock_anchor(u32 pid, std::string_view cat, u64 wall_epoch_ns,
                    u64 steady_anchor_ns);
  /// A wall-clock complete (`X`) slice; `args` is a JSON object.
  void wall_slice(u32 pid, u32 tid, std::string_view name,
                  std::string_view cat, u64 start_ns, u64 dur_ns,
                  std::string_view args);
  /// The stream the next event's JSON object goes to (pid 1's events).
  std::ostream& event();
  void finish();

 private:
  std::ostream& os_;
  bool first_ = true;
};

/// Write the whole sink as pid 1 and telemetry's retained spans, if
/// any, as pid 2.
void write_chrome_trace(std::ostream& os, const TraceSink& sink);

/// Convenience file writer. Throws SimError when the file cannot be
/// opened.
void write_chrome_trace_file(const std::string& path, const TraceSink& sink);

}  // namespace hulkv::trace
