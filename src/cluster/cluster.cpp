#include "cluster/cluster.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "profile/attr.hpp"
#include "telemetry/telemetry.hpp"

namespace hulkv::cluster {

Cluster::Cluster(const ClusterConfig& config, mem::SocBus* bus)
    : config_(config),
      bus_(bus),
      tcdm_(config.tcdm),
      icache_(config.num_cores, config.icache),
      event_unit_(std::make_unique<EventUnit>(config.num_cores)),
      dma_(bus, &tcdm_, mem::map::kTcdmBase),
      at_barrier_(config.num_cores, false) {
  HULKV_CHECK(bus != nullptr, "cluster needs the SoC bus");
  HULKV_CHECK(config.num_cores >= 1, "cluster needs cores");
  sched_.reset(config.num_cores);  // rejects ids that overflow the key
  for (u32 c = 0; c < config.num_cores; ++c) {
    PmcaCoreConfig core_cfg = config.core;
    core_cfg.core_id = c;
    cores_.push_back(std::make_unique<PmcaCore>(
        core_cfg, &tcdm_, mem::map::kTcdmBase, &icache_, bus));
    cores_.back()->set_env_handler(
        [this](PmcaCore& core) { handle_envcall(core); });
  }
}

void Cluster::on_code_loaded() {
  icache_.flush();
  for (auto& core : cores_) core->invalidate_decode_cache();
}

void Cluster::on_code_loaded(Addr base, u64 bytes) {
  // The I-cache flush is timing-visible and therefore unconditional;
  // only the purely functional decoded-block invalidation is scoped to
  // the written range (each core skips it unless it translated code
  // overlapping [base, base+bytes)).
  icache_.flush();
  for (auto& core : cores_) core->invalidate_decode_cache(base, bytes);
}

void Cluster::release_barrier() {
  const Cycles wake = event_unit_->release();
  for (u32 c = 0; c < config_.num_cores; ++c) {
    if (at_barrier_[c]) {
      at_barrier_[c] = false;
      cores_[c]->advance_to(wake);
      // Waiting cores slept outside any instruction; the gap to `wake`
      // shows up before their next retired instruction. (The releasing
      // core accounts for its own wait in-bracket — its gap is zero.)
      cores_[c]->profile_note_gap(profile::Reason::kBarrierWait);
      cores_[c]->set_state(PmcaCore::State::kRunning);
      // Re-enter the scheduler's runnable set. The releasing core's
      // slice ends right after this envcall, so the scheduler picks
      // again before any further instruction executes.
      sched_.set(c, cores_[c]->now());
    }
  }
}

void Cluster::handle_envcall(PmcaCore& core) {
  using isa::reg::a0;
  using isa::reg::a1;
  using isa::reg::a2;
  using isa::reg::a3;
  using isa::reg::a4;
  const u64 func = core.reg(isa::reg::a7);

  switch (func) {
    case envcall::kExit:
      core.set_state(PmcaCore::State::kFinished);
      break;
    case envcall::kBarrier: {
      at_barrier_[core.core_id()] = true;
      core.set_state(PmcaCore::State::kBlocked);
      const Cycles arrive_time = core.now();
      if (event_unit_->arrive(core.core_id(), core.now())) {
        release_barrier();
        // The last core to arrive is advanced to the wake time inside
        // its own ecall bracket: record its (usually short) wait here.
        profile::add(profile::Reason::kBarrierWait,
                     core.now() - arrive_time);
      }
      break;
    }
    case envcall::kDma1d: {
      // The DMA engine's bus/TCDM occupancy does not stall the starting
      // core; keep its timing-model spans off the core's books.
      const profile::SuppressGuard mute;
      const u32 job = dma_.start_1d(core.now(), core.reg(a0), core.reg(a1),
                                    core.reg(a2));
      core.set_reg(a0, job);
      core.advance_to(core.now() + 4);  // config-register writes
      break;
    }
    case envcall::kDma2d: {
      const profile::SuppressGuard mute;
      const u32 job =
          dma_.start_2d(core.now(), core.reg(a0), core.reg(a1),
                        core.reg(a2), core.reg(a3), core.reg(a4));
      core.set_reg(a0, job);
      core.advance_to(core.now() + 6);
      break;
    }
    case envcall::kDmaWait: {
      const Cycles wait_start = core.now();
      {
        const profile::SuppressGuard mute;
        core.advance_to(std::max(core.now(), dma_.finish_all()));
        dma_.retire_before(core.now());
      }
      profile::add(profile::Reason::kDmaWait, core.now() - wait_start);
      break;
    }
    case envcall::kCoreCount:
      core.set_reg(a0, team_size_);
      break;
    default:
      throw SimError("unknown PMCA envcall " + std::to_string(func));
  }
}

Cluster::KernelResult Cluster::run_kernel(Cycles start_time, Addr entry,
                                          u32 arg0, u32 team_size) {
  // One cluster-dispatch telemetry span per PMCA kernel execution.
  const telemetry::Span span(telemetry::SpanPhase::kClusterDispatch);
  if (team_size == 0) team_size = config_.num_cores;
  HULKV_CHECK(team_size <= config_.num_cores,
              "team larger than the cluster");
  team_size_ = team_size;
  // Barriers synchronise exactly the dispatched team.
  event_unit_ = std::make_unique<EventUnit>(team_size);

  const u64 instret_before = [&] {
    u64 total = 0;
    for (auto& core : cores_) total += core->instret();
    return total;
  }();

  for (u32 c = 0; c < team_size; ++c) {
    PmcaCore& core = *cores_[c];
    core.reset_for_run(entry);
    core.set_reg(isa::reg::a0, arg0);
    // Stack at the top of TCDM, 1 kB per core (bare-metal runtime layout).
    const u32 stack_top = static_cast<u32>(
        mem::map::kTcdmBase + tcdm_.storage().size() -
        core.core_id() * 1024);
    core.set_reg(isa::reg::sp, stack_top);
    core.advance_to(start_time + config_.dispatch_latency);
    // Idle time since this core's previous kernel (plus the dispatch
    // latency itself) is event-unit sleep, not execution.
    core.profile_note_gap(profile::Reason::kEvuSleep);
  }

  // Always advance the core with the smallest local clock so
  // shared-resource reservations (TCDM banks, DMA, external memory) are
  // made in time order. One scan of the packed (cycle, core_id) keys —
  // the same key the old per-instruction linear scan minimised — picks
  // the laggard and hands it the runner-up's key, so it can retire a
  // whole run of instructions locally while it stays the laggard. The
  // resulting instruction interleaving (and with it every reservation
  // and cycle count) is identical to stepping one instruction at a time.
  //
  // A slice that parks hands over to the runner-up without waiting for
  // the scan, which only supplies the next limit. That is the scan's own
  // answer: a parked slice retired no envcall, so no other core's key or
  // run state moved; the parked core's key reached the runner-up's and
  // keys are unique, so it now lies above it; every other key was
  // already at least the runner-up's. So the runner-up is the new
  // minimum, and the fresh scan's second key is the new limit. Every
  // other slice end (an envcall retired, the core left kRunning) takes
  // both from the scan.
  sched_.reset(config_.num_cores);
  for (u32 c = 0; c < team_size; ++c) sched_.set(c, cores_[c]->now());
  CoreScheduler::Pick pick = sched_.pick();
  while (pick.first != CoreScheduler::kIdle) {
    const u32 c = CoreScheduler::id_of(pick.first);
    PmcaCore& core = *cores_[c];
    if (core.run_slice(pick.second)) {
      sched_.set(c, core.now());
      pick = {pick.second, sched_.pick().second};
      continue;
    }
    if (core.state() == PmcaCore::State::kRunning) {
      sched_.set(c, core.now());
    } else {
      sched_.remove(c);
    }
    pick = sched_.pick();
  }
  // No runnable core left: either done, or a barrier deadlock.
  {
    bool all_finished = true;
    for (auto& core : cores_) {
      all_finished &= core->state() == PmcaCore::State::kFinished;
    }
    HULKV_CHECK(all_finished,
                "cluster deadlock: cores blocked with no runnable core "
                "(barrier not reached by the whole team?)");
  }

  KernelResult result;
  result.start = start_time;
  for (u32 c = 0; c < team_size; ++c) {
    result.finish = std::max(result.finish, cores_[c]->now());
  }
  // Clocks only grow, so the latest one bounds every key the scheduler
  // packed during this kernel.
  HULKV_CHECK(result.finish <= CoreScheduler::kMaxCycle,
              "cluster clock overflowed the scheduler's packed key");
  for (auto& core : cores_) result.instret += core->instret();
  result.instret -= instret_before;
  result.cycles = result.finish - start_time;
  if (trace::enabled()) {
    // One `run` interval per team core (dispatch -> its own exit) plus a
    // dispatch marker on the event-unit track.
    auto& sink = trace::sink();
    sink.instant(sink.resolve(trace_track_, "event_unit"),
                 trace::Ev::kDispatch, start_time, team_size, entry);
    for (u32 c = 0; c < team_size; ++c) {
      cores_[c]->trace_kernel_done(start_time + config_.dispatch_latency);
    }
  }
  return result;
}

void Cluster::serialize(snapshot::Archive& ar) {
  ar.pod(team_size_);
  ar.bool_vec(at_barrier_);
  ar.expect_size(at_barrier_.size(), config_.num_cores,
                 "cluster barrier table");
  u32 team = event_unit_->num_cores();
  ar.pod(team);
  if (ar.loading()) {
    if (team == 0 || team > config_.num_cores) {
      throw SimError("snapshot: event unit team of " + std::to_string(team) +
                     " cores on a " + std::to_string(config_.num_cores) +
                     "-core cluster");
    }
    event_unit_ = std::make_unique<EventUnit>(team);
  }
  event_unit_->serialize(ar);
  tcdm_.serialize(ar);
  icache_.serialize(ar);
  dma_.serialize(ar);
  for (auto& core : cores_) core->serialize(ar);
  if (ar.loading()) sched_.reset(config_.num_cores);
}

}  // namespace hulkv::cluster
