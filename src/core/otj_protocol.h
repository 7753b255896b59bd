// One-time equi-joins (PIER-style baseline): the query is broadcast, every
// node rehashes its locally stored base tuples by join value into a
// temporary namespace, and the temporary-key owners run a symmetric hash
// join, streaming result rows straight back to the issuer in one typed
// kOtjResult hop, whose handler fills the issuer-side result buffer.

#ifndef CONTJOIN_CORE_OTJ_PROTOCOL_H_
#define CONTJOIN_CORE_OTJ_PROTOCOL_H_

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "chord/types.h"
#include "core/context.h"
#include "core/messages.h"

namespace contjoin::core::otj {

/// Temporary collector buffers a node keeps per in-flight execution.
struct State {
  /// otj id -> join value -> per-side rehashed tuples.
  std::unordered_map<
      uint64_t,
      std::unordered_map<std::string, std::array<std::vector<OtjTuple>, 2>>>
      buffers;
};

// Message handlers (wired up by the dispatch registry).
void HandleScan(ProtocolContext& ctx, chord::Node& node,
                const chord::AppMessage& msg);
void HandleRehash(ProtocolContext& ctx, chord::Node& node,
                  const chord::AppMessage& msg);
void HandleResult(ProtocolContext& ctx, chord::Node& node,
                  const chord::AppMessage& msg);

}  // namespace contjoin::core::otj

#endif  // CONTJOIN_CORE_OTJ_PROTOCOL_H_
