// IEEE-754 binary16 ("FP16") software emulation.
//
// The PMCA's shared FPUs support FP32 and FP16 with 2-way SIMD (paper
// section III-C); the host CVA6 only has scalar FP32/FP64. The instruction
// set simulator emulates the reduced-precision SIMD datapath with these
// helpers: every FP16 operation is computed in float and rounded back
// through `Half`, which matches the behaviour of a
// round-after-each-operation FP16 FMA datapath closely enough for the
// kernel-level accuracy checks in tests/ (golden models bound the ULP
// error).
#pragma once

#include <bit>

#include "common/types.hpp"

namespace hulkv {

/// Value type for IEEE binary16. Stored as the raw 16-bit pattern;
/// conversions implement round-to-nearest-even, gradual underflow
/// (subnormals), and NaN/Inf propagation.
class Half {
 public:
  constexpr Half() = default;

  /// Reinterpret a raw binary16 bit pattern.
  static constexpr Half from_bits(u16 raw) {
    Half h;
    h.bits_ = raw;
    return h;
  }

  /// Convert from float with round-to-nearest-even.
  static Half from_float(float f);

  /// Widen to float (exact).
  float to_float() const;

  constexpr u16 bits() const { return bits_; }

  constexpr bool operator==(const Half&) const = default;

 private:
  u16 bits_ = 0;
};

/// Convert a float to binary16 bits (round-to-nearest-even). Inline:
/// the PMCA's FP16 SIMD handlers convert every lane.
inline u16 float_to_half_bits(float f) {
  const u32 x = std::bit_cast<u32>(f);
  const u32 sign = (x >> 16) & 0x8000u;
  const u32 abs = x & 0x7FFFFFFFu;

  // NaN / Inf.
  if (abs >= 0x7F800000u) {
    if (abs > 0x7F800000u) {
      // Quiet NaN, preserve some payload bits.
      return static_cast<u16>(sign | 0x7E00u | ((abs >> 13) & 0x3FFu));
    }
    return static_cast<u16>(sign | 0x7C00u);
  }

  // Overflow to infinity: anything >= 2^16 * (1 - 2^-11) rounds to inf.
  if (abs >= 0x47800000u) {  // 65536.0f
    return static_cast<u16>(sign | 0x7C00u);
  }

  // Normal range for half: exponent >= -14.
  if (abs >= 0x38800000u) {  // 2^-14
    // Re-bias exponent from 127 to 15 and round mantissa 23 -> 10 bits.
    const u32 mant = abs + 0xC8000000u;  // exponent adjust (-112 << 23)
    const u32 rounded = mant + 0x00000FFFu + ((mant >> 13) & 1u);
    return static_cast<u16>(sign | (rounded >> 13));
  }

  // Subnormal half (or zero): value < 2^-14.
  if (abs < 0x33000001u) {  // below half of the smallest subnormal
    return static_cast<u16>(sign);
  }
  // Shift the implicit-1 mantissa right so the exponent becomes -14,
  // then round-to-nearest-even.
  // result = round(value * 2^24) = round(mant24 >> (126 - exp)).
  const u32 exp = abs >> 23;
  const u32 mant = (abs & 0x7FFFFFu) | 0x800000u;
  const u32 shift = 126 - exp;  // bits to drop from the 24-bit mantissa
  const u32 kept = mant >> shift;
  const u32 rem = mant & ((1u << shift) - 1u);
  const u32 halfway = 1u << (shift - 1);
  u32 result = kept;
  if (rem > halfway || (rem == halfway && (kept & 1u))) {
    result += 1;
  }
  return static_cast<u16>(sign | result);
}

/// Convert binary16 bits to float (exact widening).
inline float half_bits_to_float(u16 h) {
  const u32 sign = (static_cast<u32>(h) & 0x8000u) << 16;
  const u32 exp = (h >> 10) & 0x1Fu;
  const u32 mant = h & 0x3FFu;

  u32 out;
  if (exp == 0) {
    if (mant == 0) {
      out = sign;  // +/- 0
    } else {
      // Subnormal: normalize.
      unsigned e = 0;
      u32 m = mant;
      while ((m & 0x400u) == 0) {
        m <<= 1;
        ++e;
      }
      m &= 0x3FFu;
      // After e shifts the leading 1 sits at bit 10: value = 2^(-14-e) *
      // (1 + frac), so the float exponent field is 127 - 14 - e = 113 - e.
      out = sign | ((113 - e) << 23) | ((m & 0x3FFu) << 13);
    }
  } else if (exp == 0x1F) {
    out = sign | 0x7F800000u | (mant << 13);  // Inf / NaN
  } else {
    out = sign | ((exp + 112) << 23) | (mant << 13);
  }
  return std::bit_cast<float>(out);
}

inline Half Half::from_float(float f) {
  return from_bits(float_to_half_bits(f));
}

inline float Half::to_float() const { return half_bits_to_float(bits_); }

}  // namespace hulkv
