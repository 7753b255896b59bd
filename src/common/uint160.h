// Uint160: unsigned 160-bit integer with modular (ring) arithmetic, the
// identifier type of the Chord 2^160 identifier circle.

#ifndef CONTJOIN_COMMON_UINT160_H_
#define CONTJOIN_COMMON_UINT160_H_

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/sha1.h"

namespace contjoin {

/// 160-bit unsigned integer. All arithmetic is modulo 2^160, which makes the
/// type directly usable as a position on the Chord identifier circle.
///
/// Stored as five 32-bit words, most-significant first, matching the SHA-1
/// digest byte order.
class Uint160 {
 public:
  static constexpr int kBits = 160;

  /// Zero.
  constexpr Uint160() : words_{} {}

  /// Value-extends a 64-bit integer.
  static Uint160 FromUint64(uint64_t v);

  /// Interprets a 20-byte digest as a big-endian 160-bit integer.
  static Uint160 FromDigest(const Sha1Digest& digest);

  /// Parses up to 40 hex characters (shorter strings are value-extended).
  /// Returns zero on malformed input paired with `ok=false` when provided.
  static Uint160 FromHex(std::string_view hex, bool* ok = nullptr);

  /// 2^exp for 0 <= exp < 160.
  static Uint160 PowerOfTwo(int exp);

  /// Maximum representable value (2^160 - 1).
  static Uint160 Max();

  /// Addition modulo 2^160.
  Uint160 operator+(const Uint160& other) const;
  /// Subtraction modulo 2^160.
  Uint160 operator-(const Uint160& other) const;

  Uint160& operator+=(const Uint160& other) { return *this = *this + other; }
  Uint160& operator-=(const Uint160& other) { return *this = *this - other; }

  bool operator==(const Uint160& other) const = default;
  /// Numeric order: the two most-significant 64-bit halves, then the last
  /// word.
  std::strong_ordering operator<=>(const Uint160& other) const {
    if (auto c = High64() <=> other.High64(); c != 0) return c;
    if (auto c = Mid64() <=> other.Mid64(); c != 0) return c;
    return words_[4] <=> other.words_[4];
  }

  /// Clockwise ring distance from `from` to *this (how far one travels
  /// clockwise starting at `from` to reach *this); equals *this - from
  /// mod 2^160.
  Uint160 ClockwiseDistanceFrom(const Uint160& from) const {
    return *this - from;
  }

  /// True iff *this lies in the ring interval (a, b] travelling clockwise.
  /// By Chord convention, (a, a] is the full ring: every identifier except
  /// none — i.e., always true (travelling the whole circle).
  ///
  /// Decided by ordering alone: for a < b the interval is the plain range;
  /// for a > b it wraps through zero and is the union of (a, Max] and
  /// [0, b]. This is the same set as 0 < *this - a <= b - a, without the
  /// two 160-bit subtractions.
  bool InOpenClosed(const Uint160& a, const Uint160& b) const {
    if (a < b) return a < *this && *this <= b;
    if (b < a) return a < *this || *this <= b;
    return true;  // Full circle.
  }

  /// True iff *this lies in the ring interval (a, b) travelling clockwise.
  /// (a, a) is the full ring minus a itself.
  bool InOpenOpen(const Uint160& a, const Uint160& b) const {
    if (a < b) return a < *this && *this < b;
    if (b < a) return a < *this || *this < b;
    return *this != a;  // Full circle minus the endpoint.
  }

  /// 40 lowercase hex characters.
  std::string ToHex() const;

  /// Short human-readable form (first 10 hex chars).
  std::string ToShortString() const;

  /// Low 64 bits (used by tests and hashing).
  uint64_t Low64() const {
    return (static_cast<uint64_t>(words_[3]) << 32) | words_[4];
  }

  /// Word accessor, index 0 = most significant.
  uint32_t word(int i) const { return words_[static_cast<size_t>(i)]; }

  /// Non-cryptographic hash for container use.
  size_t HashValue() const;

 private:
  /// Words 0-1 and 2-3 as 64-bit integers (the ordering keys).
  uint64_t High64() const {
    return (static_cast<uint64_t>(words_[0]) << 32) | words_[1];
  }
  uint64_t Mid64() const {
    return (static_cast<uint64_t>(words_[2]) << 32) | words_[3];
  }

  std::array<uint32_t, 5> words_;
};

/// Hashes an application key string onto the identifier circle with SHA-1
/// (paper §2.2: id(i) = Hash(Key(i))).
Uint160 HashKey(std::string_view key);

}  // namespace contjoin

namespace std {
template <>
struct hash<contjoin::Uint160> {
  size_t operator()(const contjoin::Uint160& v) const { return v.HashValue(); }
};
}  // namespace std

#endif  // CONTJOIN_COMMON_UINT160_H_
