// Shared Chord-layer types: identifiers, application payloads and the
// interface through which the continuous-query layer receives messages.

#ifndef CONTJOIN_CHORD_TYPES_H_
#define CONTJOIN_CHORD_TYPES_H_

#include <memory>
#include <vector>

#include "common/uint160.h"
#include "sim/net_stats.h"

namespace contjoin::chord {

/// Position on the 2^160 identifier circle.
using NodeId = Uint160;

class Node;

/// Base class for application message bodies. The continuous-query layer
/// derives concrete payloads; the Chord layer routes them opaquely.
/// Payloads are shared (const) so a multisend batch can reference one body
/// from many messages without copying.
struct Payload {
  virtual ~Payload() = default;
};

using PayloadPtr = std::shared_ptr<const Payload>;

/// How a delivered message is consumed: by the attached Application, or by
/// the node itself (the put half of the DHT interface of paper §2.1).
enum class MsgKind : unsigned char { kApp = 0, kDhtStore };

/// A routable application message: deliver `payload` to Successor(target).
struct AppMessage {
  NodeId target;
  sim::MsgClass cls = sim::MsgClass::kControl;
  PayloadPtr payload;
  MsgKind kind = MsgKind::kApp;
  /// Reliable-delivery envelope (chord routes it opaquely; the application
  /// layer acks/dedups on it). 0 = best-effort, no ack expected.
  uint64_t reliable_id = 0;
  /// Identifier of the node the delivery ack goes to, resolved through the
  /// network's node table at ack time (a raw pointer here would dangle if
  /// the origin crashed between send and delivery). Only meaningful when
  /// reliable_id != 0; zero otherwise.
  NodeId reliable_origin{};
};

/// One overlay hop in flight, in typed (wire-encodable) form. Every hop the
/// routing layer ships — a recursive routing step, a multisend batch leg, a
/// broadcast branch, or a direct delivery to a known node — is one of these
/// four kinds; the receiver executes it via Node::ApplyHop. Keeping the hop
/// a value type (instead of a captured closure) is what lets a transport
/// serialize it and move it across a process boundary.
struct HopFrame {
  enum class Kind : unsigned char {
    kRoute = 0,  // Continue routing msgs[0] with `ttl` hops left.
    kDeliver,    // Deliver msgs[0] locally (destination already resolved).
    kBatch,      // Recursive multisend step over `msgs` with `ttl` left.
    kBroadcast,  // Deliver broadcast_payload, then cover (self, limit).
  };
  Kind kind = Kind::kDeliver;
  sim::MsgClass cls = sim::MsgClass::kControl;
  int ttl = 0;
  std::vector<AppMessage> msgs;
  PayloadPtr broadcast_payload;
  NodeId broadcast_limit;
};

/// Internal payload of a DhtPut in flight.
struct DhtStorePayload : Payload {
  NodeId key;
  PayloadPtr item;
};

/// Upper-layer hook attached to each node. The continuous-query engine
/// implements this to play the rewriter/evaluator/subscriber roles.
class Application {
 public:
  virtual ~Application() = default;

  /// Called when `node` is the successor of `msg.target` and must process the
  /// message.
  virtual void HandleMessage(Node& node, const AppMessage& msg) = 0;

  /// Called when DHT-stored items keyed by `key` are handed to `node` (on
  /// join/reconnect key transfer). Used for off-line notification delivery.
  virtual void HandleStoredItems(Node& node, const NodeId& key,
                                 std::vector<PayloadPtr> items) {
    (void)node;
    (void)key;
    (void)items;
  }
};

}  // namespace contjoin::chord

#endif  // CONTJOIN_CHORD_TYPES_H_
