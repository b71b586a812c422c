#include "cluster/event_unit.hpp"

#include "snapshot/archive.hpp"

#include <algorithm>

namespace hulkv::cluster {

EventUnit::EventUnit(u32 num_cores, Cycles wakeup_latency)
    : num_cores_(num_cores),
      wakeup_latency_(wakeup_latency),
      arrived_(num_cores, false),
      stats_("event_unit") {
  HULKV_CHECK(num_cores >= 1, "event unit needs cores");
}

bool EventUnit::arrive(u32 core_id, Cycles now) {
  HULKV_CHECK(core_id < num_cores_, "bad core id at barrier");
  HULKV_CHECK(!arrived_[core_id], "core arrived at the barrier twice");
  arrived_[core_id] = true;
  if (arrived_count_ == 0) first_arrival_ = now;
  else first_arrival_ = std::min(first_arrival_, now);
  ++arrived_count_;
  max_arrival_ = std::max(max_arrival_, now);
  return arrived_count_ == num_cores_;
}

Cycles EventUnit::release() {
  HULKV_CHECK(arrived_count_ == num_cores_, "barrier released early");
  stats_.increment("barriers");
  const Cycles wake = max_arrival_ + wakeup_latency_;
  if (trace::enabled()) {
    // Span from the first arrival (cores idling) to the wake-up; the
    // arg carries the arrival skew for imbalance analysis.
    auto& sink = trace::sink();
    sink.complete(sink.resolve(trace_track_, stats_.name()),
                  trace::Ev::kBarrier, first_arrival_, wake, num_cores_,
                  max_arrival_ - first_arrival_);
  }
  arrived_count_ = 0;
  max_arrival_ = 0;
  first_arrival_ = 0;
  std::fill(arrived_.begin(), arrived_.end(), false);
  return wake;
}

void EventUnit::serialize(snapshot::Archive& ar) {
  ar.pod(wakeup_latency_);
  ar.pod(arrived_count_);
  ar.pod(max_arrival_);
  ar.pod(first_arrival_);
  ar.bool_vec(arrived_);
  ar.expect_size(arrived_.size(), num_cores_, "event unit arrival table");
  stats_.serialize(ar);
}

}  // namespace hulkv::cluster
