// A Chord node: identifier, finger table, successor list, predecessor, the
// Chord maintenance protocol (join / leave / stabilize / fix-fingers) and the
// extended routing API of the paper (send, multisend recursive & iterative).

#ifndef CONTJOIN_CHORD_NODE_H_
#define CONTJOIN_CHORD_NODE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "chord/local_store.h"
#include "chord/types.h"
#include "sim/net_stats.h"

namespace contjoin::chord {

class Network;

/// One overlay node. Created via Network::CreateNode(); owned by the Network.
///
/// In the simulator a node "address" (the paper's IP) is the Node pointer
/// plus an `ip` epoch number: direct (1-hop) communication succeeds only if
/// the node is alive and its epoch matches the epoch the sender captured,
/// modelling subscribers that reconnect from a different address (§4.6).
class Node {
 public:
  Node(Network* network, std::string key, uint64_t ip, uint64_t serial = 0);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // --- Identity -----------------------------------------------------------

  const std::string& key() const { return key_; }
  const NodeId& id() const { return id_; }
  uint64_t ip() const { return ip_; }
  /// Creation index within the Network; the event shard this node's
  /// deliveries execute under, and the per-sender fault stream id.
  uint64_t serial() const { return serial_; }
  bool alive() const { return alive_; }
  Network* network() const { return network_; }

  Application* app() const { return app_; }
  void set_app(Application* app) { app_ = app; }

  // --- Ring pointers ------------------------------------------------------

  /// First alive entry of the successor list (pruning dead ones), or nullptr
  /// if every known successor has failed.
  Node* successor();

  /// Same answer as successor() but without pruning: safe to call on a
  /// *remote* node from inside an event handler, where mutating another
  /// shard's successor list would race under parallel execution.
  Node* FirstAliveSuccessor() const;

  Node* predecessor() const { return predecessor_; }
  const std::vector<Node*>& successor_list() const { return successor_list_; }
  Node* finger(int i) const { return fingers_[static_cast<size_t>(i)]; }

  /// True iff this node is the successor of `target` as far as it can tell
  /// (target in (predecessor, self]); with an unknown/dead predecessor the
  /// node accepts responsibility (best-effort, as the paper assumes).
  bool IsResponsibleFor(const NodeId& target) const;

  // --- Protocol operations (paper §2.2) -------------------------------------

  /// Bootstraps a one-node ring.
  void CreateRing();

  /// Joins the ring known to `bootstrap`: finds the successor of this node's
  /// identifier and links in. Stabilization completes the join.
  void Join(Node* bootstrap);

  /// Voluntary departure: hands stored keys to the successor and splices
  /// neighbours' pointers.
  void LeaveGracefully();

  /// Crash: the node simply stops responding.
  void Fail();

  /// Rejoins after a departure, optionally from a new address (new ip
  /// epoch). Stored keys for this node's identifier are handed back by the
  /// new successor per the Chord transfer rule.
  void Reconnect(Node* bootstrap, bool new_ip);

  /// Periodic: verifies the immediate successor and tells it about us.
  void Stabilize();

  /// Periodic: refreshes one finger per call (round-robin), as in Chord.
  void FixNextFinger();

  /// Refreshes the whole finger table at once (tests and ideal rings).
  void FixAllFingers();

  /// Periodic: clears a failed predecessor pointer.
  void CheckPredecessor();

  /// Chord notify: `candidate` believes it might be our predecessor. Updates
  /// the pointer and transfers any stored keys that now belong to it.
  void NotifyFrom(Node* candidate);

  // --- Lookup ---------------------------------------------------------------

  /// Iterative find_successor starting at this node. Every remote probe
  /// counts one overlay hop of class `cls`. Returns nullptr only if the ring
  /// is unusable (no alive successor).
  Node* FindSuccessor(const NodeId& target, sim::MsgClass cls);

  /// Largest finger (or successor-list entry) strictly between this node and
  /// `target`; nullptr when none qualifies.
  Node* ClosestPrecedingFinger(const NodeId& target);

  /// Next recursive-routing hop toward `target`: the successor if target
  /// is in (self, succ], else the closest preceding finger (falling back on
  /// the successor). nullptr only when no successor is alive.
  Node* NextHopFor(const NodeId& target);

  // --- Extended API (paper §2.3) ---------------------------------------------

  /// send(msg, I): routes recursively to Successor(msg.target); each forward
  /// costs one hop; delivery happens via Application::HandleMessage.
  void Send(AppMessage msg);

  /// multisend(M, L), recursive design: one batch travels clockwise, each
  /// responsible node consumes its messages; every batch transmission costs
  /// one hop of class `cls`.
  void Multisend(std::vector<AppMessage> msgs, sim::MsgClass cls);

  /// The iterative baseline the paper compares against: every message is
  /// located with an iterative lookup from here, then delivered directly.
  void MultisendIterative(std::vector<AppMessage> msgs);

  /// Delivers a message directly to this node's application (no routing;
  /// used after the sender already knows the responsible node, e.g. JFRT).
  void DeliverLocal(const AppMessage& msg);

  /// Executes one received overlay hop: continue routing, deliver, take a
  /// multisend batch step, or expand a broadcast branch. Transports call
  /// this on the destination node after shipping the frame.
  void ApplyHop(HopFrame frame);

  /// Broadcasts `payload` to every alive node (including this one), using
  /// the classic finger-partitioned DHT broadcast: each node covers a
  /// disjoint ring interval through its fingers, so every node receives
  /// the payload exactly once at a cost of one message per node and
  /// O(log N) depth.
  void Broadcast(PayloadPtr payload, sim::MsgClass cls);

  // --- DHT interface (paper §2.1: put(ID, item)) -----------------------------

  /// put(ID, item): routes `item` to Successor(key) where it is stored.
  /// Costs O(log N) hops. Stored items are read back where they live
  /// (store()) or handed to the application on key transfer.
  void DhtPut(const NodeId& key, PayloadPtr item);

  // --- Storage ---------------------------------------------------------------

  LocalStore& store() { return store_; }

  /// Receives a batch of stored items (key transfer); forwards to the app.
  void AcceptStoredItems(
      std::vector<std::pair<NodeId, std::vector<PayloadPtr>>> batch);

  // --- Wiring used by Network ring builders ----------------------------------

  void SetSuccessorListDirect(std::vector<Node*> list) {
    successor_list_ = std::move(list);
  }
  void SetPredecessorDirect(Node* pred) { predecessor_ = pred; }
  void SetFingerDirect(int i, Node* node) {
    fingers_[static_cast<size_t>(i)] = node;
  }
  void SetAliveDirect(bool alive) { alive_ = alive; }
  void SetIpDirect(uint64_t ip) { ip_ = ip; }

  /// Monotone per-sender transmission counter: with the destination-shard
  /// execution model only this node's shard advances it, so the sequence a
  /// given sender draws is independent of thread interleaving. The network
  /// keys fault decisions on (sender serial, this counter).
  uint64_t NextFaultSeq() { return fault_seq_++; }

 private:
  friend class Network;

  /// Recursive routing step with `ttl` hops of budget left: delivers `msg`
  /// here if this node owns its target, drops it (counted) when routing
  /// cannot continue, and otherwise returns the next hop. Returns nullptr
  /// when the message was consumed either way.
  Node* RouteStep(const AppMessage& msg, int ttl);

  /// Recursive multisend step over a kBatch frame: consume what we own,
  /// forward the rest in the same frame.
  void HandleBatch(HopFrame frame);

  /// Broadcast recursion: forward to fingers covering (self, limit).
  void BroadcastRange(const PayloadPtr& payload, sim::MsgClass cls,
                      const NodeId& limit);

  /// Rebuilds the successor list from the current successor's list.
  void RefreshSuccessorList();

  Network* network_;
  std::string key_;
  NodeId id_;
  uint64_t ip_;
  uint64_t serial_;
  uint64_t fault_seq_ = 0;
  bool alive_ = false;

  Application* app_ = nullptr;
  Node* predecessor_ = nullptr;
  std::vector<Node*> successor_list_;
  std::array<Node*, Uint160::kBits> fingers_{};
  int next_finger_to_fix_ = 0;

  LocalStore store_;
};

}  // namespace contjoin::chord

#endif  // CONTJOIN_CHORD_NODE_H_
