#include "common/wire.h"

#include <cstring>

namespace contjoin::wire {

void Writer::U16(uint16_t v) {
  const uint8_t b[2] = {static_cast<uint8_t>(v & 0xff),
                        static_cast<uint8_t>(v >> 8)};
  Append(b, sizeof(b));
}

void Writer::U32(uint32_t v) {
  uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
  Append(b, sizeof(b));
}

void Writer::U64(uint64_t v) {
  uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
  Append(b, sizeof(b));
}

void Writer::F64(double v) {
  static_assert(sizeof(double) == 8);
  uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  U64(bits);
}

void Writer::Str(std::string_view v) {
  U32(static_cast<uint32_t>(v.size()));
  Append(reinterpret_cast<const uint8_t*>(v.data()), v.size());
}

void Writer::Id(const Uint160& v) {
  uint8_t b[20];
  for (int w = 0; w < 5; ++w) {
    uint32_t word = v.word(w);
    b[4 * w] = static_cast<uint8_t>(word >> 24);
    b[4 * w + 1] = static_cast<uint8_t>(word >> 16);
    b[4 * w + 2] = static_cast<uint8_t>(word >> 8);
    b[4 * w + 3] = static_cast<uint8_t>(word);
  }
  Append(b, sizeof(b));
}

void Writer::PatchU32(size_t offset, uint32_t v) {
  if (counting_) return;
  for (int i = 0; i < 4; ++i) {
    out_[offset + static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (8 * i));
  }
}

const uint8_t* Reader::Need(size_t n) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return nullptr;
  }
  const uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

uint8_t Reader::U8() {
  const uint8_t* p = Need(1);
  return p == nullptr ? 0 : p[0];
}

uint16_t Reader::U16() {
  const uint8_t* p = Need(2);
  if (p == nullptr) return 0;
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t Reader::U32() {
  const uint8_t* p = Need(4);
  if (p == nullptr) return 0;
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

uint64_t Reader::U64() {
  const uint8_t* p = Need(8);
  if (p == nullptr) return 0;
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

double Reader::F64() {
  uint64_t bits = U64();
  double v = 0;
  std::memcpy(&v, &bits, 8);
  return v;
}

std::string Reader::Str() {
  uint32_t len = U32();
  const uint8_t* p = Need(len);
  if (p == nullptr) return std::string();
  return std::string(reinterpret_cast<const char*>(p), len);
}

Uint160 Reader::Id() {
  const uint8_t* p = Need(20);
  Sha1Digest digest{};
  if (p != nullptr) std::memcpy(digest.data(), p, 20);
  return Uint160::FromDigest(digest);
}

}  // namespace contjoin::wire
