// Fundamental scalar types and strong aliases used across the HULK-V
// simulator. Keeping them in one header makes the units of every interface
// explicit: addresses are byte addresses in the SoC physical address space,
// and time is counted in cycles of the single simulation clock domain (see
// DESIGN.md section 4 for how cycles map onto the ASIC frequency domains).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace hulkv {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/// Physical byte address in the SoC address space (64-bit, SV39-compatible).
using Addr = std::uint64_t;

/// Simulation time in cycles of the FPGA-style single clock domain.
using Cycles = std::uint64_t;

/// Error thrown on simulator invariant violations and bad configurations.
/// Tests rely on this being thrown (rather than aborting) so that invalid
/// uses of the public API are observable behaviour.
class SimError : public std::runtime_error {
 public:
  explicit SimError(const std::string& what) : std::runtime_error(what) {}
};

}  // namespace hulkv

/// Invariant check used throughout the simulator. Unlike assert(), it is
/// active in all build types and throws hulkv::SimError so callers (and
/// tests) can observe misuse of the API as a defined behaviour.
#define HULKV_CHECK(cond, msg)                                             \
  do {                                                                     \
    if (!(cond)) {                                                         \
      throw ::hulkv::SimError(std::string("HULKV_CHECK failed: ") + msg + \
                              " (" #cond ") at " __FILE__ ":" +            \
                              std::to_string(__LINE__));                   \
    }                                                                      \
  } while (0)

/// Hot simulator code (the dispatch and slice loops, the host load/store
/// handlers, fetch and the cache miss path) starts a 64-byte line, so an
/// edit elsewhere in the binary cannot move it across cache lines and
/// blur an A/B timing. scripts/ci.sh checks the addresses (DESIGN.md
/// §15.5).
#define HULKV_HOT_CODE [[gnu::aligned(64)]]
