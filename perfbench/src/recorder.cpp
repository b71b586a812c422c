#include "recorder.hpp"

#include <time.h>

#include <chrono>
#include <cstdio>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

Recorder::Span::Span(Recorder& recorder, const char* name,
                     std::uint32_t unit)
    : recorder_(recorder) {
  if (!recorder_.tracing_) return;
  index_ = static_cast<std::int64_t>(recorder_.spans_.size());
  recorder_.spans_.push_back({name, now_ns(), 0, recorder_.open_, unit});
  recorder_.open_ = index_;
}

Recorder::Span::~Span() {
  if (index_ < 0) return;
  SpanRecord& s = recorder_.spans_[static_cast<std::size_t>(index_)];
  s.end_ns = now_ns();
  recorder_.open_ = s.parent;
}

void Recorder::sample(std::uint32_t unit, const char* name, double value) {
  if (tracing_) pass_.values[{unit, name}] += value;
}

void Recorder::count(const char* name, double value) {
  if (tracing_) pass_.counts[name] += value;
}

Recorder::Pass Recorder::end_pass() {
  const std::vector<std::uint64_t> self = self_times(spans_);
  const std::int64_t base = static_cast<std::int64_t>(archived_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    pass_.values[{spans_[i].unit, spans_[i].name}] +=
        static_cast<double>(self[i]);
    Archived a{spans_[i], self[i], pass_index_};
    if (a.span.parent >= 0) a.span.parent += base;
    archived_.push_back(a);
  }
  spans_.clear();
  open_ = -1;
  ++pass_index_;
  Pass out = std::move(pass_);
  pass_ = Pass{};
  return out;
}

bool Recorder::write_trace(
    const std::string& path,
    const std::function<std::string(std::uint32_t)>& unit_name) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::uint64_t t0 = archived_.empty() ? 0 : archived_[0].span.start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
               "\"args\":{\"name\":\"perfbench (host wall clock)\"}}");
  for (std::size_t i = 0; i < archived_.size(); ++i) {
    const Archived& a = archived_[i];
    std::fprintf(
        f,
        ",\n{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
        "\"parent\":%lld,\"unit\":\"%s\",\"pass\":%u,\"self_us\":%.3f}}",
        a.span.name, static_cast<double>(a.span.start_ns - t0) / 1e3,
        static_cast<double>(a.span.end_ns - a.span.start_ns) / 1e3, i,
        static_cast<long long>(a.span.parent),
        unit_name(a.span.unit).c_str(), a.pass,
        static_cast<double>(a.self_ns) / 1e3);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
