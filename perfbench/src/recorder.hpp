// Span and counter recording for the traced run (perfbench/README.md).
//
// Workloads wrap each call into a simulator layer in a Recorder::Span.
// With tracing off a span reads no clock; with tracing on it records
// (name, start, end, parent span, unit) in memory. At the end of a pass
// the recorder turns the pass's spans into per-(unit, name) self times,
// and at exit it writes every span as a Perfetto-loadable JSON trace.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
std::uint64_t now_ns();

/// Process CPU time (all threads) in nanoseconds.
std::uint64_t process_cpu_ns();

class Recorder {
 public:
  /// Times one call while tracing is on; does nothing otherwise.
  class Span {
   public:
    Span(Recorder& recorder, const char* name, std::uint32_t unit);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Recorder& recorder_;
    std::int64_t index_ = -1;
  };

  bool tracing() const { return tracing_; }
  /// Switch tracing for the following calls (between passes only).
  void set_tracing(bool on) { tracing_ = on; }

  /// Add a measured value that is not a span (e.g. CPU time) to
  /// (unit, name) of the current pass. Ignored while tracing is off.
  void sample(std::uint32_t unit, const char* name, double value);

  /// Add a simulated count to `name` of the current pass. Ignored while
  /// tracing is off.
  void count(const char* name, double value);

  struct Pass {
    PassValues values;                     // span self times + samples
    std::map<std::string, double> counts;  // summed per name
  };

  /// Close the current pass: aggregate its spans and samples, archive
  /// the spans for the trace file, and start an empty pass.
  Pass end_pass();

  /// Write every archived span as Chrome/Perfetto trace-event JSON.
  /// `unit_name` labels a span's unit in its args. Returns false if the
  /// file cannot be written.
  bool write_trace(const std::string& path,
                   const std::function<std::string(std::uint32_t)>&
                       unit_name) const;

  std::size_t span_count() const { return archived_.size(); }

 private:
  struct Archived {
    SpanRecord span;  // parent re-based to an index into archived_
    std::uint64_t self_ns = 0;
    std::uint32_t pass = 0;
  };

  bool tracing_ = false;
  std::vector<SpanRecord> spans_;  // current pass; parents index into it
  std::int64_t open_ = -1;         // innermost open span of spans_
  Pass pass_;
  std::uint32_t pass_index_ = 0;
  std::vector<Archived> archived_;
};

}  // namespace perfbench
