// Wire primitives: a little-endian binary writer/reader pair used by the
// message codecs (core/codec.h) and the transport frame envelope
// (chord/transport.h). The format is positional — no field tags — so
// encoder and decoder must agree on field order; the codec registry keeps
// them side by side per message type.
//
// Scalars are fixed-width little-endian; doubles travel as their 8-byte
// IEEE-754 bit pattern (bit-exact round trip, no text formatting drift);
// strings carry a u32 byte-length prefix; Uint160 identifiers are 20 raw
// big-endian bytes, matching the SHA-1 digest order they come from.

#ifndef CONTJOIN_COMMON_WIRE_H_
#define CONTJOIN_COMMON_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/uint160.h"

namespace contjoin::wire {

/// Appends fields to a byte buffer. A counting writer (Counting()) runs
/// the same calls but stores nothing: size() advances exactly as the
/// storing writer's would, so an encoder doubles as its own size function
/// without a second, hand-kept layout.
class Writer {
 public:
  Writer() = default;
  /// A writer that only measures: size() advances, bytes() stays empty.
  static Writer Counting() {
    Writer w;
    w.counting_ = true;
    return w;
  }
  bool counting() const { return counting_; }

  void U8(uint8_t v) {
    if (counting_) {
      ++count_;
    } else {
      out_.push_back(v);
    }
  }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  /// IEEE-754 bit pattern, 8 bytes.
  void F64(double v);
  /// u32 length prefix + raw bytes.
  void Str(std::string_view v);
  /// Raw bytes, no length prefix (a string written in pieces: write a
  /// placeholder length, the pieces, then PatchU32 the length).
  void Raw(std::string_view v) {
    Append(reinterpret_cast<const uint8_t*>(v.data()), v.size());
  }
  /// 20 raw bytes, most-significant first.
  void Id(const Uint160& v);

  /// Counting mode only: accounts `n` bytes measured earlier (a memoised
  /// field size) without writing them again.
  void Skip(size_t n) { count_ += n; }

  const std::vector<uint8_t>& bytes() const { return out_; }
  std::vector<uint8_t> Take() { return std::move(out_); }
  size_t size() const { return counting_ ? count_ : out_.size(); }

  /// Overwrites 4 bytes at `offset` with `v` (length back-patching; a
  /// no-op when counting, since the width is unchanged).
  void PatchU32(size_t offset, uint32_t v);

  /// Discards everything written after byte `size` (encode rollback).
  void Truncate(size_t size) {
    if (counting_) {
      count_ = size;
    } else {
      out_.resize(size);
    }
  }

 private:
  /// Appends `n` bytes in one step (or only counts them).
  void Append(const uint8_t* p, size_t n) {
    if (counting_) {
      count_ += n;
    } else {
      out_.insert(out_.end(), p, p + n);
    }
  }

  std::vector<uint8_t> out_;
  bool counting_ = false;
  size_t count_ = 0;
};

/// Consumes fields from a byte buffer. Every accessor checks bounds; after
/// any short read `ok()` turns false and subsequent reads return zero
/// values, so decoders can read a full message and check `ok()` once.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit Reader(const std::vector<uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  int64_t I64() { return static_cast<int64_t>(U64()); }
  bool Bool() { return U8() != 0; }
  double F64();
  std::string Str();
  Uint160 Id();

  bool ok() const { return ok_; }
  /// Marks the buffer malformed: a decoder read a field it cannot accept.
  void Fail() { ok_ = false; }
  /// True iff every byte was consumed and no read ran short.
  bool AtEnd() const { return ok_ && pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  /// Returns a pointer to `n` readable bytes, or nullptr (sets ok_=false).
  const uint8_t* Need(size_t n);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace contjoin::wire

#endif  // CONTJOIN_COMMON_WIRE_H_
