// The workload catalogue served by the hulkv::serve daemon: the five
// Fig. 8 IoT CPU-centric benchmarks of kernels::iot_benchmarks() at
// scale 4, a quarter of Fig. 8's input sizes (a few ms per point
// instead of seconds, so a request is an RPC rather than a batch job).
// Workload ids are wire-protocol values, the indices of that table,
// which is append-only; every program is built from fixed sizes and
// fixed RNG seeds, so its digest (cache-key component) is a pure
// function of the id.
#pragma once

#include "core/soc.hpp"
#include "kernels/iot_benchmarks.hpp"
#include "serve/protocol.hpp"

namespace hulkv::serve {

/// Number of workloads in the catalogue (valid ids are [0, count)).
u8 workload_count();

const char* workload_name(u8 id);

/// Throw SimError on an out-of-range workload id.
void check_workload(u8 id);

/// Throw SimError on any out-of-range field of a point (workload id,
/// memory kind, llc flag). The server maps the throw to kBadRequest.
void check_point(const PointParams& point);

/// SoC configuration of a point (memory kind + LLC enable).
core::SocConfig point_config(const PointParams& point);

/// A workload instantiated on a SoC: input data written to shared
/// memory, program built, argument registers chosen.
using WorkloadSetup = kernels::IotSetup;

/// Write the workload's input data into `soc` and return its program
/// and arguments. Deterministic: fixed sizes, fixed seeds.
WorkloadSetup setup_workload(u8 id, core::HulkVSoc& soc);

/// Digest of the workload's program words (cache-key component).
/// Computed once per process and cached; pure function of the id.
u64 workload_digest(u8 id);

}  // namespace hulkv::serve
