#include "chord/transport.h"

#include <utility>

#include "chord/network.h"
#include "chord/node.h"

namespace contjoin::chord {

// contjoin-check: hot
void SimTransport::SendHop(Node* from, const NodeId& to, HopFrame frame) {
  // Exact-identifier resolution (dead nodes included): TransmitFrame counts
  // the hop and drops on a dead or unknown destination.
  network_->TransmitFrame(from, network_->FindById(to), std::move(frame));
}

}  // namespace contjoin::chord
