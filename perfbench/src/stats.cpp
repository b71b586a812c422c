#include "stats.hpp"

#include <algorithm>
#include <array>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2;
}

BestSummary summarize_best(const std::vector<std::vector<double>>& reps) {
  BestSummary out;
  std::vector<double> bests;
  for (const std::vector<double>& op : reps) {
    if (op.empty()) continue;
    bests.push_back(*std::min_element(op.begin(), op.end()));
  }
  for (double b : bests) {
    out.sum += b;
    out.max = std::max(out.max, b);
  }
  out.median = median(bests);
  out.ops = bests.size();
  return out;
}

Percentile percentile(std::vector<double> samples, std::uint32_t milli_pct) {
  Percentile out;
  out.pct = milli_pct / 1000.0;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const std::uint64_t n = samples.size();
  std::uint64_t rank = (std::uint64_t{milli_pct} * n + 99999) / 100000;
  rank = std::clamp<std::uint64_t>(rank, 1, n);
  out.value = samples[rank - 1];
  out.beyond = n - rank;
  return out;
}

Percentile tail_percentile(const std::vector<double>& samples,
                           std::size_t min_beyond) {
  static constexpr std::array<std::uint32_t, 6> kLadder = {
      50000, 90000, 99000, 99900, 99990, 99999};
  Percentile chosen = percentile(samples, kLadder[0]);
  for (std::uint32_t p : kLadder) {
    const Percentile candidate = percentile(samples, p);
    if (candidate.beyond < min_beyond) break;
    chosen = candidate;
  }
  return chosen;
}

std::vector<std::uint64_t> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<std::uint64_t> out(spans.size());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const std::uint64_t duration = s.end_ns - s.start_ns;
    cover.clear();
    for (std::size_t c : children[i]) {
      const std::uint64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const std::uint64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (lo < hi) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::uint64_t covered = 0, reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::uint64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    out[i] = duration - covered;
  }
  return out;
}

void BestTable::add_pass(const PassValues& values) {
  for (const auto& [key, value] : values) {
    const auto [it, inserted] = best_.emplace(key, value);
    if (!inserted) it->second = std::min(it->second, value);
  }
}

std::vector<double> BestTable::bests(const std::string& name) const {
  std::vector<double> out;
  for (const auto& [key, value] : best_) {
    if (key.second == name) out.push_back(value);
  }
  return out;
}

double BestTable::sum(const std::string& name) const {
  double total = 0;
  for (double v : bests(name)) total += v;
  return total;
}

double BestTable::total() const {
  double sum = 0;
  for (const auto& entry : best_) sum += entry.second;
  return sum;
}

double BestTable::best(std::uint32_t unit, const std::string& name) const {
  const auto it = best_.find({unit, name});
  return it == best_.end() ? -1.0 : it->second;
}

}  // namespace perfbench
