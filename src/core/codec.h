// Wire codecs for the continuous-query payloads and the chord hop frames.
//
// Every CqMsgType has a registered Encode/Decode pair in a central registry
// (codec.cc keeps them side by side per type; tools/check rule "codecs"
// enforces exhaustiveness against the enum). The format is the positional
// little-endian layout of common/wire.h. Queries travel as their raw SQL
// plus submission metadata and are re-parsed on receipt, so the parser
// stays the single source of structural truth.
//
// Every overlay hop is a typed frame, so everything the engine ships is
// encodable. Encoders still return false / an empty buffer on a malformed
// payload (a missing query, a DHT item that is not a CqPayload) instead of
// aborting.

#ifndef CONTJOIN_CORE_CODEC_H_
#define CONTJOIN_CORE_CODEC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "chord/types.h"
#include "common/wire.h"
#include "core/messages.h"
#include "relational/schema.h"

namespace contjoin::core {

/// Registry of per-type payload codecs, keyed by CqMsgType. The default
/// instance covers every enumerator; the pass/fail pair is kept adjacent
/// in codec.cc so the wire format of a type is reviewed as one unit.
class PayloadCodec {
 public:
  /// Appends the body of `payload` (no type tag) to `w`. Returns false on a
  /// malformed payload (the caller then rolls back what it wrote).
  using EncodeFn = bool (*)(const CqPayload& payload, wire::Writer& w);
  /// Parses a body of type `type`; nullptr on malformed input (the reader's
  /// ok() also turns false on short reads). `catalog` resolves re-parsed
  /// query schemas.
  using DecodeFn = std::shared_ptr<const CqPayload> (*)(
      CqMsgType type, wire::Reader& r, const rel::Catalog& catalog);

  /// The registry covering every CqMsgType (checked at first use).
  static const PayloadCodec& Default();

  /// Registers the pair for `type`; false if one was already registered.
  bool RegisterCodec(CqMsgType type, EncodeFn encode, DecodeFn decode);

  bool HasCodec(CqMsgType type) const;

  /// Writes [u8 type][body]. False (nothing written) if malformed.
  bool Encode(const CqPayload& payload, wire::Writer& w) const;

  /// Reads [u8 type][body]; nullptr on malformed input.
  std::shared_ptr<const CqPayload> Decode(wire::Reader& r,
                                          const rel::Catalog& catalog) const;

 private:
  struct Entry {
    EncodeFn encode = nullptr;
    DecodeFn decode = nullptr;
  };
  Entry entries_[kCqMsgTypeCount];
};

/// Serializes a routable message: target, class, kind, reliability
/// envelope, payload. False (nothing written) if the payload is malformed
/// (not a CqPayload, or a DhtStore item that is not one).
bool EncodeAppMessage(const chord::AppMessage& msg, wire::Writer& w);

/// Inverse of EncodeAppMessage; false on malformed input.
bool DecodeAppMessage(wire::Reader& r, const rel::Catalog& catalog,
                      chord::AppMessage* out);

/// Serializes one overlay hop to a self-contained buffer:
/// [u8 version][u8 hop kind][u8 class][u32 ttl][per-kind body]. A socket
/// transport prepends its own u32 length prefix for stream framing.
/// Returns an empty buffer if any contained message is malformed.
std::vector<uint8_t> EncodeHopFrame(const chord::HopFrame& frame);

/// Inverse of EncodeHopFrame; false on malformed or version-mismatched
/// input.
bool DecodeHopFrame(const uint8_t* data, size_t size,
                    const rel::Catalog& catalog, chord::HopFrame* out);

/// Encoded size of `frame` in bytes, or 0 if it is malformed; always equal
/// to EncodeHopFrame(frame).size(). It runs the same layout code through a
/// counting wire::Writer, so nothing is built or allocated, and reuses each
/// payload's memoised size after the payload is first sized. The
/// bytes-on-wire meter installed by the engine (Options::count_wire_bytes)
/// feeds sim::NetStats::AddBytes with this.
size_t EncodedFrameSize(const chord::HopFrame& frame);

}  // namespace contjoin::core

#endif  // CONTJOIN_CORE_CODEC_H_
