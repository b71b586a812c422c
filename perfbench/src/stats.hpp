// Aggregation of the benchmark's host-time samples.
//
// Every op is deterministic, so its host cost has a floor, and
// interference from other tenants of the machine only adds to it. The
// gated metrics therefore take each op's best (fastest) repetition and
// sum or rank those bests over the workload's fixed op set; the raw
// distribution is kept as an ungated diagnostic (perfbench/README.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 if empty.
double median(std::vector<double> values);

/// Per-op bests over an op set: `reps[op]` holds the op's repetition
/// times. Ops without a repetition are skipped.
struct BestSummary {
  double sum = 0;     // sum of the per-op bests
  double median = 0;  // median per-op best: a typical op
  double max = 0;     // largest per-op best: the slowest op class
  std::size_t ops = 0;
};
BestSummary summarize_best(const std::vector<std::vector<double>>& reps);

/// A nearest-rank percentile: `value` is the sample of rank
/// ceil(pct/100 * n), and `beyond` counts the samples ranked above it.
struct Percentile {
  double pct = 0;
  double value = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile of `samples` at `milli_pct` thousandths of a
/// percent (50000 = p50, 99900 = p99.9). Integer rank arithmetic, so
/// the rank never depends on floating-point rounding.
Percentile percentile(std::vector<double> samples, std::uint32_t milli_pct);

/// The highest percentile of the ladder p50, p90, p99, p99.9, p99.99,
/// p99.999 that has at least `min_beyond` samples beyond it (p50 when
/// none has).
Percentile tail_percentile(const std::vector<double>& samples,
                           std::size_t min_beyond = 10);

/// One timed call: `parent` indexes the enclosing span in the same
/// vector (-1 for a root), `unit` is the op (or other repeated unit)
/// the call belongs to.
struct SpanRecord {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint32_t unit = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
std::vector<std::uint64_t> self_times(const std::vector<SpanRecord>& spans);

/// Values of one pass keyed by (unit, name), e.g. summed span self times.
using PassValues = std::map<std::pair<std::uint32_t, std::string>, double>;

/// Best value per (unit, name) over passes.
class BestTable {
 public:
  void add_pass(const PassValues& values);
  /// Per-unit bests of `name`, in unit order.
  std::vector<double> bests(const std::string& name) const;
  /// Sum over units of the best of `name` (0 if never recorded).
  double sum(const std::string& name) const;
  /// Best of `name` in `unit`, or a negative value if never recorded.
  double best(std::uint32_t unit, const std::string& name) const;
  /// Sum of every (unit, name)'s best.
  double total() const;

 private:
  std::map<std::pair<std::uint32_t, std::string>, double> best_;
};

}  // namespace perfbench
