// ProtocolContext: the narrow seam between the protocol role handlers
// (rewriter / evaluator / subscriber / multi-way / one-time-join) and the
// engine hosting them. Handlers reach the catalog, options, rng, per-node
// state, transport, clock and notification sink exclusively through this
// interface — it is the boundary a sharded simulator or a real wire
// transport plugs into, and what unit tests mock to exercise one handler in
// isolation. Every message a handler sends is a typed AppMessage (routed,
// multisent, or one direct hop to a known identifier); a handler changes
// another node's state only by sending it a message.

#ifndef CONTJOIN_CORE_CONTEXT_H_
#define CONTJOIN_CORE_CONTEXT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "chord/types.h"
#include "common/rng.h"
#include "core/notification.h"
#include "core/options.h"
#include "relational/tuple.h"
#include "sim/net_stats.h"
#include "sim/simulator.h"

namespace contjoin::rel {
class Catalog;
}  // namespace contjoin::rel

namespace contjoin::core {

struct NodeState;
class AlgorithmStrategy;

class ProtocolContext {
 public:
  virtual ~ProtocolContext() = default;

  // --- Configuration & environment -----------------------------------------

  virtual const Options& options() const = 0;
  /// Strategy object of the configured algorithm (SAI / DAI-Q / DAI-T /
  /// DAI-V policy differences).
  virtual const AlgorithmStrategy& strategy() const = 0;
  virtual rel::Catalog& GetCatalog() = 0;
  virtual Rng& GetRng() = 0;
  /// Clock: current virtual time.
  virtual rel::Timestamp now() const = 0;

  // --- Per-node protocol state ----------------------------------------------

  virtual NodeState& StateOf(chord::Node& node) = 0;

  // --- Transport ------------------------------------------------------------

  /// Routes `msg` from `from` toward Successor(msg.target).
  virtual void Send(chord::Node& from, chord::AppMessage msg) = 0;
  /// Routes a batch with the paper's recursive multisend (§2.3).
  virtual void Multisend(chord::Node& from,
                         std::vector<chord::AppMessage> msgs,
                         sim::MsgClass cls) = 0;
  /// Point-to-point (one-hop) delivery of a typed message to the node whose
  /// identifier is exactly `to`. Resolution happens at the transport, so no
  /// raw Node* crosses the hop; the destination dispatches `msg` by type.
  virtual void TransmitMessage(chord::Node& from, const chord::NodeId& to,
                               chord::AppMessage msg) = 0;
  /// Accounts one overlay hop of class `cls` (e.g. an implied response).
  virtual void CountHop(sim::MsgClass cls) = 0;
  /// Accounts one backpressure decision (serving extension): `shed` = the
  /// delivery was dropped at the high-water mark, otherwise it was
  /// deferred to a later epoch. Default no-op so seam mocks that predate
  /// the serving layer keep working unchanged.
  virtual void RecordBackpressure(bool shed) { (void)shed; }

  // --- Reliable delivery ------------------------------------------------------

  /// Fresh engine-unique id for a message reliably sent by `from` (never
  /// 0). Ids are drawn from a per-node counter so concurrently executing
  /// shards never contend, and the sequence each node draws is independent
  /// of worker count.
  virtual uint64_t NextReliableId(chord::Node& from) = 0;
  /// Runs `fn` after `delay` virtual time units (retry timers). The timer
  /// executes under `node`'s event shard, like a message delivered to it.
  virtual void ScheduleAfter(chord::Node& node, sim::SimTime delay,
                             sim::Action fn) = 0;
  /// ScheduleAfter with a cancellation handle: once `*cancel` is set the
  /// timer is discarded without firing and without holding the virtual
  /// clock open to its deadline. Retry backoff timers use this so an acked
  /// message's speculative far-future retries stop stretching queue drains.
  /// Default: plain ScheduleAfter (seam mocks predate cancellation; a timer
  /// that fires as a no-op is behaviourally equivalent, just slower).
  virtual void ScheduleAfterCancellable(chord::Node& node, sim::SimTime delay,
                                        sim::CancelToken cancel,
                                        sim::Action fn) {
    (void)cancel;
    ScheduleAfter(node, delay, std::move(fn));
  }

  // --- Subscribers & results -------------------------------------------------

  /// Node currently registered under application key `key` (subscriber
  /// lookup for direct notification delivery); nullptr if unknown.
  virtual chord::Node* NodeByKey(const std::string& key) = 0;
  /// Node with exactly identifier `id` (alive or dead); nullptr if no such
  /// node ever existed. Used to resolve reliable-delivery origins without
  /// holding raw pointers in messages.
  virtual chord::Node* NodeById(const chord::NodeId& id) = 0;
  /// Notification sink: appends `n` to `node`'s local inbox.
  virtual void DepositNotification(chord::Node& node, Notification n) = 0;
  /// One-time-join result sink: appends `rows` to the issuer-side result
  /// buffer of execution `otj_id`.
  virtual void AppendOtjResults(uint64_t otj_id,
                                std::vector<Notification> rows) = 0;

  /// True when a stored object published at `pub` is still inside the
  /// sliding window relative to `now_time`.
  bool InWindow(rel::Timestamp pub, rel::Timestamp now_time) const {
    return options().window == 0 || now_time - pub <= options().window;
  }
};

}  // namespace contjoin::core

#endif  // CONTJOIN_CORE_CONTEXT_H_
