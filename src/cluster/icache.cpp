#include "cluster/icache.hpp"

namespace hulkv::cluster {

ClusterIcache::ClusterIcache(u32 num_cores,
                             const ClusterIcacheConfig& config)
    : l2_latency_(config.l2_fetch_latency) {
  mem::CacheConfig shared_cfg{.name = "cluster_l1i_shared",
                              .size_bytes = config.shared_bytes,
                              .line_bytes = config.line_bytes,
                              .ways = 4,
                              .write_through = true,
                              .write_allocate = false,
                              .profile_reason =
                                  profile::Reason::kClIcacheMiss,
                              .hit_latency = config.shared_hit_latency,
                              .fill_penalty = 0};
  shared_ = std::make_unique<mem::CacheModel>(shared_cfg, &l2_latency_);

  for (u32 c = 0; c < num_cores; ++c) {
    mem::CacheConfig priv_cfg{
        .name = "cluster_l1i_core" + std::to_string(c),
        .size_bytes = config.private_bytes,
        .line_bytes = config.line_bytes,
        .ways = 1,  // direct-mapped private level
        .write_through = true,
        .write_allocate = false,
        .profile_reason = profile::Reason::kClIcacheMiss,
        .hit_latency = 0,
        .fill_penalty = 0};
    private_.push_back(
        std::make_unique<mem::CacheModel>(priv_cfg, shared_.get()));
  }
}

void ClusterIcache::flush() {
  shared_->flush();
  for (auto& cache : private_) cache->flush();
}

}  // namespace hulkv::cluster
