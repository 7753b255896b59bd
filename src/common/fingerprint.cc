#include "common/fingerprint.h"

#include <algorithm>
#include <utility>

namespace contjoin {
namespace {

uint64_t Rotl(uint64_t x, int b) { return (x << b) | (x >> (64 - b)); }

void SipRound(uint64_t& v0, uint64_t& v1, uint64_t& v2, uint64_t& v3) {
  v0 += v1;
  v1 = Rotl(v1, 13);
  v1 ^= v0;
  v0 = Rotl(v0, 32);
  v2 += v3;
  v3 = Rotl(v3, 16);
  v3 ^= v2;
  v0 += v3;
  v3 = Rotl(v3, 21);
  v3 ^= v0;
  v2 += v1;
  v1 = Rotl(v1, 17);
  v1 ^= v2;
  v2 = Rotl(v2, 32);
}

}  // namespace

SipHasher::SipHasher(uint64_t k0, uint64_t k1)
    : v0_(k0 ^ 0x736f6d6570736575ull),
      v1_(k1 ^ 0x646f72616e646f6dull ^ 0xee),  // 0xee: the 128-bit variant.
      v2_(k0 ^ 0x6c7967656e657261ull),
      v3_(k1 ^ 0x7465646279746573ull) {}

void SipHasher::Compress(uint64_t m) {
  v3_ ^= m;
  SipRound(v0_, v1_, v2_, v3_);
  SipRound(v0_, v1_, v2_, v3_);
  v0_ ^= m;
}

// contjoin-check: hot
void SipHasher::Update(std::string_view bytes) {
  for (const char c : bytes) {
    tail_ |= uint64_t{static_cast<unsigned char>(c)} << (8 * (total_ & 7));
    if ((++total_ & 7) == 0) {
      Compress(tail_);
      tail_ = 0;
    }
  }
}

Fingerprint128 SipHasher::Finish() const {
  uint64_t v0 = v0_, v1 = v1_, v2 = v2_, v3 = v3_;
  const uint64_t b = (total_ << 56) | tail_;
  v3 ^= b;
  SipRound(v0, v1, v2, v3);
  SipRound(v0, v1, v2, v3);
  v0 ^= b;
  v2 ^= 0xee;
  for (int i = 0; i < 4; ++i) SipRound(v0, v1, v2, v3);
  Fingerprint128 out;
  out.lo = v0 ^ v1 ^ v2 ^ v3;
  v1 ^= 0xdd;
  for (int i = 0; i < 4; ++i) SipRound(v0, v1, v2, v3);
  out.hi = v0 ^ v1 ^ v2 ^ v3;
  return out;
}

// contjoin-check: hot
bool FingerprintSet::Insert(const Fingerprint128& id) {
  if (id == Fingerprint128{}) {
    if (has_zero_) return false;
    has_zero_ = true;
    ++size_;
    return true;
  }
  // Keep the slot array at most half full so a probe for an absent id
  // stays short.
  if (2 * (size_ + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  for (size_t i = id.lo & mask;; i = (i + 1) & mask) {
    if (slots_[i] == id) return false;
    if (slots_[i] == Fingerprint128{}) {
      slots_[i] = id;
      ++size_;
      return true;
    }
  }
}

void FingerprintSet::Clear() {
  std::fill(slots_.begin(), slots_.end(), Fingerprint128{});
  size_ = 0;
  has_zero_ = false;
}

void FingerprintSet::Grow() {
  std::vector<Fingerprint128> old = std::move(slots_);
  slots_.assign(std::max<size_t>(16, 2 * old.size()), Fingerprint128{});
  const size_t mask = slots_.size() - 1;
  for (const Fingerprint128& id : old) {
    if (id == Fingerprint128{}) continue;
    size_t i = id.lo & mask;
    while (slots_[i] != Fingerprint128{}) i = (i + 1) & mask;
    slots_[i] = id;
  }
}

}  // namespace contjoin
