// The benchmark's workloads (perfbench/README.md). A workload owns a
// fixed op set; the runner (main.cpp) runs the set once per pass, times
// every op from outside, and checks each op's outputs and simulated
// counts. Workloads time calls into the simulator's layers with
// Recorder spans and report the layers' public counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/soc.hpp"
#include "recorder.hpp"

namespace perfbench {

/// Checked work that is not an op (serve hits and suites): it counts
/// towards the run's attempted and failed totals.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few failures

  /// Count one attempt; a non-empty `error` marks it failed.
  void record(const std::string& what, const std::string& error);
};

/// What one repetition of an op retired on the simulated SoC. Every
/// repetition of an op must retire exactly the same.
struct OpRun {
  std::uint64_t instret = 0;  // instructions retired, all cores
  std::uint64_t cycles = 0;   // simulated cycles
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the programs, inputs and golden outputs (serve: also start
  /// the server, build its warm pool and fill its cache). Called several
  /// times per run, after teardown(), with tracing on: setup_s sums the
  /// best self time of each span, so a set-up wraps its steps in spans.
  virtual void setup(Recorder& recorder) = 0;
  /// Release what setup() built (untimed).
  virtual void teardown() {}

  virtual std::size_t op_count() const = 0;
  /// Label of an op, or of another unit a span or sample belongs to.
  virtual std::string unit_name(std::uint32_t unit) const = 0;
  /// Op order of one pass.
  virtual std::vector<std::size_t> pass_order(std::uint32_t pass);

  /// One repetition of `op`: the timed work.
  virtual OpRun run_op(std::size_t op, Recorder& recorder) = 0;
  /// Compare the outputs of the last run_op(op) with the reference.
  /// Returns an empty string when they are equal.
  virtual std::string check_op(std::size_t op) = 0;

  /// Checked work that follows an op but is not part of it.
  virtual void after_op(std::size_t op, Recorder& recorder, Tally& tally);
  /// Checked work that closes a pass.
  virtual void after_pass(Recorder& recorder, Tally& tally);

  /// Host seconds one pass takes on the reference machine (4-vCPU VM,
  /// parent commit of the benchmark). Sets the run's pass count, so
  /// every commit runs the same number of repetitions per op.
  virtual double nominal_pass_seconds() const = 0;
};

std::unique_ptr<Workload> make_iot_host(std::uint64_t seed);
std::unique_ptr<Workload> make_offload_dsp(std::uint64_t seed);
/// `socket_path`: the Unix socket the in-process server binds.
/// `traced`: the run has traced passes (set-up builds their replay state).
std::unique_ptr<Workload> make_serve_mixed(std::uint64_t seed,
                                           std::string socket_path,
                                           bool traced);

/// RNG seed of an input generator whose figure bench seeds it with
/// `base`. Seed 0 reproduces the figure bench's fixed inputs.
std::uint64_t input_seed(std::uint64_t base, std::uint64_t seed);

/// Host and memory-layer counters of a SoC (cumulative since reset).
struct SocCounters {
  double l1d_accesses = 0, l1d_misses = 0;
  double l1i_accesses = 0, l1i_misses = 0;
  double block_translations = 0;  // host and PMCA decode caches
  double llc_accesses = 0, llc_misses = 0;
  double ext_busy_cycles = 0, refresh_collisions = 0;
};
SocCounters read_counters(hulkv::core::HulkVSoc& soc);

/// Count `after - before` into the recorder's pass counts.
void count_delta(Recorder& recorder, const SocCounters& before,
                 const SocCounters& after);

/// Raw bytes of a vector of trivially copyable values.
template <typename T>
std::vector<std::uint8_t> bytes_of(const std::vector<T>& values) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(values.data());
  return std::vector<std::uint8_t>(p, p + values.size() * sizeof(T));
}

/// "" when `got` equals `want`, else where they first differ.
std::string compare_bytes(const std::vector<std::uint8_t>& got,
                          const std::vector<std::uint8_t>& want);

}  // namespace perfbench
