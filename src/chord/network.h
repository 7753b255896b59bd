// The simulated overlay network: node registry, hop-counted transport,
// ground-truth oracle, ring construction (protocol-based and ideal) and
// maintenance driving. Every overlay hop is a typed HopFrame: it leaves
// through TransmitHop and the installed Transport, and inside the
// simulator lands in TransmitFrame, which counts it, consults the fault
// plan and schedules it on the destination's shard.

#ifndef CONTJOIN_CHORD_NETWORK_H_
#define CONTJOIN_CHORD_NETWORK_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "chord/node.h"
#include "chord/types.h"
#include "common/rng.h"
#include "sim/net_stats.h"
#include "sim/simulator.h"

namespace contjoin::faults {
class FaultPlan;
}  // namespace contjoin::faults

namespace contjoin::chord {

class SimTransport;
class Transport;

/// Transport and protocol knobs.
struct NetworkOptions {
  /// Successor-list length r (paper §2.2: small values suffice).
  int successor_list_size = 4;
  /// Virtual-time latency of one overlay hop. Zero gives deterministic
  /// cascades (an insertion's consequences complete before the next event).
  sim::SimTime hop_latency = 0;
  /// Hop budget per routed message; exceeded messages are dropped and
  /// counted (only reachable in inconsistent transitional rings).
  int max_route_hops = 512;
};

/// Owns all nodes, counts traffic, and provides ring-construction helpers.
class Network {
 public:
  explicit Network(sim::Simulator* simulator, NetworkOptions options = {});
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  sim::Simulator* simulator() const { return simulator_; }
  sim::NetStats& stats() { return stats_; }
  const NetworkOptions& options() const { return options_; }

  // --- Node lifecycle -------------------------------------------------------

  /// Creates an unjoined node with the given application key (paper §2.2:
  /// e.g. derived from public key / IP). Identifier = SHA-1(key).
  Node* CreateNode(const std::string& key);

  /// Creates a node and joins it through `bootstrap` (protocol join).
  Node* CreateAndJoin(const std::string& key, Node* bootstrap);

  /// Builds an N-node ring with exact pointers: sorted successors,
  /// predecessors, successor lists and fingers computed directly. Routing
  /// over the result is identical to a converged protocol-built ring; only
  /// construction messages are skipped (used by the large benchmarks).
  /// Node keys are "node-<i>".
  std::vector<Node*> BuildIdealRing(size_t n);

  /// Recomputes every alive node's pointers to the ideal state (used after
  /// scripted churn in benchmarks).
  void RewireIdeal();

  // --- Introspection ---------------------------------------------------------

  /// Ground truth: first alive node whose identifier >= id (clockwise),
  /// i.e. Successor(id). nullptr if no node is alive.
  Node* OracleSuccessor(const NodeId& id) const;

  /// Exact-identifier lookup over every node ever created (dead included).
  /// Read-only over a hash index that only grows at serial time (in
  /// CreateNode), so event handlers on any shard may call it without locks
  /// (every typed hop resolves its destination here, and the reliability
  /// layer routes acks to origins by identifier).
  Node* FindById(const NodeId& id) const {
    auto it = id_index_.find(id);
    return it == id_index_.end() ? nullptr : it->second;
  }

  std::vector<Node*> AliveNodes() const;
  size_t alive_count() const { return alive_count_; }
  const std::vector<std::unique_ptr<Node>>& all_nodes() const {
    return nodes_;
  }

  /// True iff every alive node's successor pointer matches the oracle.
  bool RingIsConsistent() const;

  /// True iff, additionally, all predecessor pointers and finger tables
  /// match the oracle.
  bool RingIsFullyConsistent() const;

  // --- Maintenance ------------------------------------------------------------

  /// One round: every alive node runs check-predecessor, stabilize, and
  /// fixes `fingers_per_round` fingers.
  void RunMaintenanceRound(int fingers_per_round = 1);

  /// Runs rounds until RingIsFullyConsistent() or `max_rounds` is hit.
  /// Returns the number of rounds executed.
  int StabilizeUntilConsistent(int max_rounds);

  // --- Transport (used by Node) -----------------------------------------------

  /// One overlay hop inside the simulator: counts a hop of the frame's
  /// class, applies the fault plan (drop, duplicate, extra delay) and
  /// schedules `to` to execute `frame` via Node::ApplyHop after the hop
  /// latency. The frame rides in the scheduled event itself (one closure
  /// per hop). Frames to dead or unknown (nullptr) nodes are dropped and
  /// counted, at send time or on arrival.
  void TransmitFrame(Node* from, Node* to, HopFrame frame);

  /// Ships one overlay hop to the node with identifier `to` through the
  /// installed transport (the only send path for overlay hops). When a
  /// frame sizer is installed, the frame's wire size is accounted per
  /// message class first, on every hop (forwards and retries included).
  void TransmitHop(Node* from, const NodeId& to, HopFrame frame);

  /// The hop-shipping seam. Defaults to the in-simulator transport;
  /// nullptr restores the default.
  Transport* transport() const { return transport_; }
  void set_transport(Transport* transport);

  /// The built-in in-simulator transport (always available; socket
  /// transports delegate locally-owned hops to it).
  Transport* sim_transport() const;

  /// Installs the bytes-on-wire meter: a callback returning the encoded
  /// size of a frame (wired up by the engine, which owns the codec; the
  /// chord layer cannot size application payloads itself). The engine's
  /// sizer measures without encoding (core::EncodedFrameSize). Unset by
  /// default — hop accounting then stays byte-free.
  void set_frame_sizer(std::function<size_t(const HopFrame&)> sizer) {
    frame_sizer_ = std::move(sizer);
  }

  /// Hop accounting for synchronous probe RPCs (iterative lookups), which
  /// execute inline rather than through the event queue.
  void CountHop(sim::MsgClass cls) { stats_.AddHop(cls); }
  void CountDrop(sim::MsgClass cls) { stats_.AddDrop(cls); }

  /// Installs (or clears, with nullptr) the fault-injection plan consulted
  /// by TransmitFrame. The plan must outlive the network. No plan means the
  /// historical loss-free transport.
  void set_fault_plan(faults::FaultPlan* plan) { fault_plan_ = plan; }
  faults::FaultPlan* fault_plan() const { return fault_plan_; }

  // --- Node lifecycle hooks (used by Node) ------------------------------------

  void OnNodeDeath() { --alive_count_; }
  void OnNodeBirth() { ++alive_count_; }

  /// Fresh address epoch for a node reconnecting from a new "IP".
  uint64_t AssignIp() { return next_ip_++; }

 private:
  /// Hash for the id index. Node identifiers are SHA-1 digests, so their
  /// low 64 bits are already uniformly spread.
  struct IdIndexHash {
    size_t operator()(const NodeId& id) const {
      return static_cast<size_t>(id.Low64());
    }
  };

  void WireIdeal(const std::vector<Node*>& sorted);

  /// Schedules `frame` on `to`'s shard after `latency`; on arrival a dead
  /// destination drops it (counted) instead of applying it.
  void ScheduleDelivery(Node* to, sim::SimTime latency, HopFrame frame);

  sim::Simulator* simulator_;
  NetworkOptions options_;
  std::unique_ptr<SimTransport> sim_transport_;
  Transport* transport_;
  std::function<size_t(const HopFrame&)> frame_sizer_;
  sim::NetStats stats_;
  faults::FaultPlan* fault_plan_ = nullptr;
  std::vector<std::unique_ptr<Node>> nodes_;
  // All nodes ever created, dead included: ordered for the clockwise
  // OracleSuccessor scan, hashed for the per-hop FindById.
  std::map<NodeId, Node*> by_id_;
  std::unordered_map<NodeId, Node*, IdIndexHash> id_index_;
  size_t alive_count_ = 0;
  uint64_t next_ip_ = 1;
  uint64_t next_key_serial_ = 0;
};

}  // namespace contjoin::chord

#endif  // CONTJOIN_CHORD_NETWORK_H_
