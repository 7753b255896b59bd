// The transport seam: every typed overlay hop (HopFrame) leaves the
// routing layer through a Transport. SimTransport keeps today's
// deterministic in-simulator semantics bit-for-bit (hop accounting, fault
// injection, destination-shard scheduling all stay in Network);
// a socket transport ships the encoded frame to the process owning the
// destination node instead. Frame encoding itself lives above this layer
// (core/codec) and is injected where a transport needs bytes, keeping the
// chord layer free of application payload knowledge.

#ifndef CONTJOIN_CHORD_TRANSPORT_H_
#define CONTJOIN_CHORD_TRANSPORT_H_

#include "chord/types.h"

namespace contjoin::chord {

class Network;
class Node;

/// Ships overlay hops to nodes addressed by identifier. Implementations
/// resolve the identifier to a location (simulator node table, peer socket
/// table) at send time — no raw Node* travels inside a frame, so the
/// dangling-pointer bug class the reliability layer once hit cannot recur
/// at the transport layer.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends one hop to the node whose identifier is exactly `to` (already
  /// resolved by routing; this is not a Successor() lookup). The receiver
  /// executes the frame via Node::ApplyHop. Accounting and fault injection
  /// are the implementation's responsibility.
  virtual void SendHop(Node* from, const NodeId& to, HopFrame frame) = 0;
};

/// The discrete-event implementation: resolves `to` through the network's
/// id index and delegates to Network::TransmitFrame, which applies hop
/// counting, fault injection and destination-shard scheduling.
class SimTransport : public Transport {
 public:
  explicit SimTransport(Network* network) : network_(network) {}

  void SendHop(Node* from, const NodeId& to, HopFrame frame) override;

 private:
  Network* network_;
};

}  // namespace contjoin::chord

#endif  // CONTJOIN_CHORD_TRANSPORT_H_
