// Unit tests for the common substrate: bit utilities, FP16 emulation,
// deterministic RNG, stat counters, JSON string quoting.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/bitutil.hpp"
#include "common/half.hpp"
#include "common/json_quote.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "telemetry/json.hpp"

namespace hulkv {
namespace {

TEST(BitUtil, ExtractBits) {
  EXPECT_EQ(bits(0xDEADBEEF, 0, 4), 0xFu);
  EXPECT_EQ(bits(0xDEADBEEF, 28, 4), 0xDu);
  EXPECT_EQ(bits(0xFFFFFFFFFFFFFFFFull, 0, 64), 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(bit(0x8, 3), 1u);
  EXPECT_EQ(bit(0x8, 2), 0u);
}

TEST(BitUtil, SignExtend) {
  EXPECT_EQ(sign_extend(0xFFF, 12), -1);
  EXPECT_EQ(sign_extend(0x7FF, 12), 0x7FF);
  EXPECT_EQ(sign_extend(0x800, 12), -2048);
  EXPECT_EQ(sign_extend(0xFF, 8), -1);
  EXPECT_EQ(sign_extend(0x80000000ull, 32),
            std::numeric_limits<i32>::min());
}

TEST(BitUtil, PowersOfTwo) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
  EXPECT_EQ(log2_exact(4096), 12u);
}

TEST(BitUtil, Alignment) {
  EXPECT_EQ(align_up(13, 8), 16u);
  EXPECT_EQ(align_up(16, 8), 16u);
  EXPECT_EQ(align_down(13, 8), 8u);
  EXPECT_EQ(ceil_div(10, 4), 3u);
  EXPECT_EQ(ceil_div(8, 4), 2u);
}

TEST(Check, ThrowsSimError) {
  EXPECT_THROW(
      [] { HULKV_CHECK(false, "intentional"); }(), SimError);
  EXPECT_NO_THROW([] { HULKV_CHECK(true, "fine"); }());
}

TEST(Half, ExactSmallIntegers) {
  for (int i = -2048; i <= 2048; ++i) {
    const float f = static_cast<float>(i);
    EXPECT_EQ(half_bits_to_float(float_to_half_bits(f)), f) << i;
  }
}

TEST(Half, KnownEncodings) {
  EXPECT_EQ(float_to_half_bits(0.0f), 0x0000);
  EXPECT_EQ(float_to_half_bits(-0.0f), 0x8000);
  EXPECT_EQ(float_to_half_bits(1.0f), 0x3C00);
  EXPECT_EQ(float_to_half_bits(-2.0f), 0xC000);
  EXPECT_EQ(float_to_half_bits(65504.0f), 0x7BFF);  // max finite
  EXPECT_EQ(float_to_half_bits(65536.0f), 0x7C00);  // -> inf
  EXPECT_EQ(float_to_half_bits(std::numeric_limits<float>::infinity()),
            0x7C00);
}

TEST(Half, SubnormalsRoundTrip) {
  // Smallest subnormal: 2^-24.
  const float tiny = std::ldexp(1.0f, -24);
  EXPECT_EQ(float_to_half_bits(tiny), 0x0001);
  EXPECT_EQ(half_bits_to_float(0x0001), tiny);
  // Largest subnormal.
  EXPECT_EQ(half_bits_to_float(0x03FF), std::ldexp(1023.0f, -24));
}

TEST(Half, NanPropagates) {
  const u16 nan_bits =
      float_to_half_bits(std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(std::isnan(half_bits_to_float(nan_bits)));
}

TEST(Half, RoundTripAllBitPatterns) {
  // Property: every finite half converts to float and back bit-exactly.
  for (u32 bits = 0; bits <= 0xFFFF; ++bits) {
    const u16 h = static_cast<u16>(bits);
    const float f = half_bits_to_float(h);
    if (std::isnan(f)) continue;  // NaN payloads may canonicalise
    EXPECT_EQ(float_to_half_bits(f), h) << "bits=0x" << std::hex << bits;
  }
}

TEST(Half, RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and the next half; RNE
  // rounds to even (1.0).
  const float halfway = 1.0f + std::ldexp(1.0f, -11);
  EXPECT_EQ(float_to_half_bits(halfway), 0x3C00);
  // Just above halfway rounds up.
  const float above = 1.0f + std::ldexp(1.5f, -11);
  EXPECT_EQ(float_to_half_bits(above), 0x3C01);
}

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, RangesRespected) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const i64 v = rng.next_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Stats, CountersAccumulate) {
  StatGroup stats("test");
  EXPECT_EQ(stats.get("x"), 0u);
  stats.increment("x");
  stats.add("x", 4);
  EXPECT_EQ(stats.get("x"), 5u);
  stats.set("x", 2);
  EXPECT_EQ(stats.get("x"), 2u);
  stats.reset();
  EXPECT_EQ(stats.get("x"), 0u);
}

TEST(Stats, RenderIsStable) {
  StatGroup stats("grp");
  stats.add("b", 2);
  stats.add("a", 1);
  EXPECT_EQ(stats.to_string(), "grp.a = 1\ngrp.b = 2\n");
}

TEST(Stats, InternedCounterHandleSharesStorage) {
  StatGroup stats("grp");
  u64& counter = stats.counter("hits");
  EXPECT_EQ(stats.get("hits"), 0u);
  counter += 5;
  EXPECT_EQ(stats.get("hits"), 5u);
  stats.increment("hits");  // string API hits the same slot
  EXPECT_EQ(counter, 6u);
  // reset() zeroes values in place, so the handle stays valid.
  stats.reset();
  EXPECT_EQ(counter, 0u);
  counter += 2;
  EXPECT_EQ(stats.get("hits"), 2u);
}

TEST(Log, ParseLogLevelNamesAndFallback) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("Warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("bogus", LogLevel::kError), LogLevel::kError);
}

TEST(Log, ClockStampsLines) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kInfo);
  set_log_clock([]() -> unsigned long long { return 12345; });

  testing::internal::CaptureStderr();
  log(LogLevel::kInfo, "test", "stamped");
  std::string line = testing::internal::GetCapturedStderr();
  EXPECT_NE(line.find("@12345"), std::string::npos) << line;
  EXPECT_NE(line.find("stamped"), std::string::npos);

  set_log_clock({});  // unregister: no cycle stamp
  testing::internal::CaptureStderr();
  log(LogLevel::kInfo, "test", "bare");
  line = testing::internal::GetCapturedStderr();
  EXPECT_EQ(line.find('@'), std::string::npos) << line;
  set_log_level(saved);
}

// Every byte 0x01-0x7f, alone and between plain text, quotes to a
// literal with no raw control byte that the JSON reader maps back.
TEST(JsonQuote, EveryAsciiByteRoundTripsWithoutRawControls) {
  for (int b = 0x01; b <= 0x7f; ++b) {
    const char c = static_cast<char>(b);
    for (const std::string& input :
         {std::string(1, c), "a" + std::string(1, c) + "b"}) {
      const std::string quoted = json_quote(input);
      for (const char q : quoted) {
        EXPECT_GE(static_cast<unsigned char>(q), 0x20)
            << "byte 0x" << std::hex << b << " left raw in " << quoted;
      }
      const telemetry::json::Value parsed = telemetry::json::parse(quoted);
      ASSERT_TRUE(parsed.is(telemetry::json::Kind::kString))
          << "byte 0x" << std::hex << b;
      EXPECT_EQ(parsed.as_string(), input) << "byte 0x" << std::hex << b;
    }
  }
}

}  // namespace
}  // namespace hulkv
