// Fixed-width 128-bit fingerprints: a streaming SipHash-2-4-128 hasher
// (Aumasson & Bernstein, "SipHash: a fast short-input PRF", 2012) and a
// flat open-addressing set of its outputs.
//
// A fingerprint stands in for a string key that is only ever compared for
// equality: n fingerprints of distinct strings collide with probability at
// most n^2 / 2^129 (about 1e-27 at n = 1e6), so equal fingerprints are
// treated as equal keys.

#ifndef CONTJOIN_COMMON_FINGERPRINT_H_
#define CONTJOIN_COMMON_FINGERPRINT_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace contjoin {

/// A 128-bit hash value. `lo` holds output bytes 0..7 and `hi` bytes 8..15,
/// each read little-endian, as the SipHash reference lays them out.
struct Fingerprint128 {
  uint64_t lo = 0;
  uint64_t hi = 0;

  friend bool operator==(const Fingerprint128&,
                         const Fingerprint128&) = default;
  friend auto operator<=>(const Fingerprint128&,
                          const Fingerprint128&) = default;
};

/// Streaming SipHash-2-4 with 128-bit output. Feeding a message in any
/// split gives the same result as feeding it whole.
class SipHasher {
 public:
  /// `k0`/`k1` are the key's bytes 0..7 and 8..15, read little-endian.
  SipHasher(uint64_t k0, uint64_t k1);

  /// Absorbs `bytes`.
  void Update(std::string_view bytes);

  /// The hash of everything absorbed so far (the hasher is left as is).
  Fingerprint128 Finish() const;

 private:
  void Compress(uint64_t m);

  uint64_t v0_, v1_, v2_, v3_;
  uint64_t tail_ = 0;   // Pending bytes of the current 8-byte word.
  uint64_t total_ = 0;  // Bytes absorbed.
};

/// A set of fingerprints in one flat, linearly probed slot array: no heap
/// node per element. The all-zero fingerprint marks an empty slot, so a
/// flag records whether that value itself is a member.
class FingerprintSet {
 public:
  /// Adds `id`; returns true when it was not yet a member.
  bool Insert(const Fingerprint128& id);
  /// Empties the set, keeping its slot array for reuse.
  void Clear();
  size_t size() const { return size_; }

 private:
  void Grow();

  std::vector<Fingerprint128> slots_;  // Size 0 or a power of two.
  size_t size_ = 0;                    // Members, the zero id included.
  bool has_zero_ = false;
};

}  // namespace contjoin

#endif  // CONTJOIN_COMMON_FINGERPRINT_H_
