// The continuous-query engine facade: ContinuousQueryNetwork owns the
// simulator, the Chord ring and the per-node protocol state, and exposes
// the submission / results / introspection API applications program
// against. The protocol logic itself lives in the role modules (rewriter,
// evaluator, subscriber, mw, otj) behind the ProtocolContext seam; the
// facade implements that seam and routes incoming messages through the
// dispatch registry.

#ifndef CONTJOIN_CORE_ENGINE_H_
#define CONTJOIN_CORE_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chord/network.h"
#include "chord/node.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/statusor.h"
#include "core/algorithm.h"
#include "core/context.h"
#include "core/dispatch.h"
#include "core/messages.h"
#include "core/metrics.h"
#include "core/options.h"
#include "core/state.h"
#include "faults/churn.h"
#include "faults/fault_plan.h"
#include "query/parser.h"
#include "relational/schema.h"
#include "sim/simulator.h"

namespace contjoin::core {

/// The complete system: simulator + Chord ring + continuous-query protocol.
///
/// Typical use:
///
///   core::Options opts;
///   opts.num_nodes = 256;
///   opts.algorithm = core::Algorithm::kDaiT;
///   core::ContinuousQueryNetwork net(opts);
///   net.catalog()->Register(...);
///   auto key = net.SubmitQuery(7, "SELECT ... FROM R, S WHERE R.B = S.E");
///   net.InsertTuple(12, "R", {rel::Value::Int(1), ...});
///   for (auto& n : net.TakeNotifications(7)) ...;
class ContinuousQueryNetwork : public chord::Application,
                               private ProtocolContext {
 public:
  explicit ContinuousQueryNetwork(Options options);
  ~ContinuousQueryNetwork() override;

  ContinuousQueryNetwork(const ContinuousQueryNetwork&) = delete;
  ContinuousQueryNetwork& operator=(const ContinuousQueryNetwork&) = delete;

  // --- Setup ----------------------------------------------------------------

  rel::Catalog* catalog() { return &catalog_; }
  const Options& options() const override { return options_; }

  // --- Submitting work ---------------------------------------------------------

  /// Parses `sql`, indexes the query from node `node_index` and returns the
  /// query key. T2 queries require Algorithm::kDaiV.
  StatusOr<std::string> SubmitQuery(size_t node_index, std::string_view sql);

  /// Continuous m-way equi-join (future-work extension, 2 <= m <= 8):
  /// recursive SAI over the query's join tree. Requires
  /// Algorithm::kSai and attribute_replication == 1.
  StatusOr<std::string> SubmitMultiwayQuery(size_t node_index,
                                            std::string_view sql);

  /// PIER-style one-time equi-join (the baseline architecture the paper
  /// contrasts its continuous algorithms with): the query is broadcast,
  /// every node rehashes its stored base tuples by join value into a
  /// temporary namespace, and the temporary-key owners run a symmetric
  /// hash join, streaming rows back to the issuer. Snapshot semantics:
  /// every stored tuple participates regardless of age; windows do not
  /// apply. Requires an algorithm that stores tuples at the value level
  /// (kSai or kDaiQ).
  StatusOr<std::vector<Notification>> OneTimeJoin(size_t node_index,
                                                  std::string_view sql);

  /// Inserts a tuple of `relation` from node `node_index`. The full
  /// consequence cascade (indexing, rewriting, evaluation, notification
  /// delivery) completes before the call returns.
  Status InsertTuple(size_t node_index, const std::string& relation,
                     std::vector<rel::Value> values);

  /// Inserts a batch of tuples that all arrive at the same virtual time,
  /// each published from its own origin node, then drains the combined
  /// cascade in one run. Semantically equivalent to consecutive
  /// InsertTuple calls at one timestamp, but the wide epoch it creates is
  /// what lets the parallel simulator core spread delivery across workers
  /// (the throughput benchmark's operating mode).
  Status InsertTupleWave(
      const std::vector<std::pair<size_t, std::string>>& origins_relations,
      std::vector<std::vector<rel::Value>> rows);

  // --- Open-loop serving (src/serving drives these) ----------------------------

  /// Schedules a tuple publication at absolute virtual time `when` (>= Now)
  /// without draining the cascade: the tuple is stamped with its birth time
  /// `when` and a fresh sequence number immediately, and the publication
  /// fires when the simulator clock reaches `when`. Unlike InsertTuple the
  /// call returns before any protocol work happens — this is what lets an
  /// open-loop driver keep arrivals coming whether or not the system keeps
  /// up. The origin node is resolved at fire time (churn-safe).
  Status SchedulePublish(sim::SimTime when, size_t node_index,
                         const std::string& relation,
                         std::vector<rel::Value> values);

  /// Runs all events with timestamp <= `until`, advances the clock to
  /// exactly `until`, then applies scripted churn that became due. The
  /// open-loop driver alternates SchedulePublish batches with
  /// RunOpenLoopUntil segment boundaries. Returns events run.
  uint64_t RunOpenLoopUntil(sim::SimTime until);

  /// Cancels a continuous query (extension): every rewriter that may hold
  /// it drops it from its ALQT bucket. SAI, DAI-T and DAI-V evaluators
  /// keep rewritten queries or projections, and so does any evaluator
  /// under options.adapt; there each ALQT entry records the evaluators
  /// its rewrites reached, carries them along when its bucket moves, and
  /// the rewriter tells them too. DAI-Q evaluators store tuples only
  /// (§4.4.2), so a DAI-Q cancellation never goes past the rewriters.
  /// With options.reliability on, every removal message is retried until
  /// acknowledged.
  Status Unsubscribe(size_t node_index, const std::string& query_key);

  /// §4.7 "moving an identifier": moves the rewriter role of one
  /// attribute-level key (and its stored queries and statistics) to the
  /// successor of a fresh identifier; the base node keeps a one-hop
  /// forwarding pointer. Issued from `node_index` (control traffic is
  /// accounted). Can be repeated; the base pointer always targets the
  /// newest holder.
  Status MigrateAttribute(size_t node_index, const std::string& relation,
                          const std::string& attr, int replica = 0);

  // --- Results -----------------------------------------------------------------

  /// Drains the notifications delivered to node `node_index`.
  std::vector<Notification> TakeNotifications(size_t node_index);

  /// Notifications currently queued (without draining).
  size_t PendingNotifications(size_t node_index) const;

  // --- Subscriber dynamics (§4.6) --------------------------------------------------

  /// Disconnects a node (graceful departure; its DHT keys move on).
  /// Notifications for its queries are then stored at Successor(Id(n)).
  void DisconnectNode(size_t node_index);

  /// Reconnects, optionally from a new address; stored notifications are
  /// handed back through the Chord key-transfer rule.
  void ReconnectNode(size_t node_index, bool new_ip);

  // --- Fault tolerance (extension; §3.2 is best-effort by design) -------------

  /// Installs a scripted churn schedule (events must be time-sorted). Due
  /// events are applied as virtual time passes, at operation boundaries
  /// (quiescent points of the event queue), followed by the repair sweep
  /// when options.reliability enables it.
  void InstallChurnScript(faults::ChurnScript script);

  /// Crashes a node without warning: ring failure plus loss of all its
  /// volatile protocol state (ALQT/VLQT/VLTT/DAI-V tables, JFRT, dedup
  /// caches, DHT-stored items). The subscriber inbox and query serial
  /// survive, modeling client-side application state.
  void CrashNode(size_t node_index);

  /// Adds a brand-new node to the ring (ideal rewire; ReconcilePlacement
  /// moves the index entries it is now responsible for). Returns its index.
  size_t JoinNewNode();

  /// Soft-state repair, part 1 — key-range handoff: moves every ALQT /
  /// VLQT / VLTT / DAI-V bucket and DHT-stored item whose home identifier
  /// now resolves to a different alive node over to that node (one control
  /// hop per moved bucket). Returns the number of objects moved.
  size_t ReconcilePlacement();

  /// Soft-state repair, part 2 — re-index refresh: replays every live
  /// query submission and tuple publication from the origin-side durable
  /// logs with their original keys and timestamps. Receiver-side dedup and
  /// idempotent table inserts make the replay converge instead of
  /// duplicating state.
  void RefreshIndexes();

  const faults::FaultPlan* fault_plan() const { return fault_plan_.get(); }
  /// Churn events not yet applied.
  size_t PendingChurnEvents() const {
    return churn_script_.events.size() - churn_next_;
  }

  // --- Introspection ---------------------------------------------------------------

  size_t num_nodes() const { return nodes_.size(); }
  chord::Node* node(size_t i) { return nodes_[i]; }
  chord::Network* network() { return &network_; }
  sim::Simulator* simulator() { return &simulator_; }
  sim::NetStats& stats() { return network_.stats(); }
  rel::Timestamp now() const override { return simulator_.Now(); }

  const NodeMetrics& metrics(size_t node_index) const;
  NodeStorage storage(size_t node_index) const;
  const NodeState* state(size_t node_index) const;

  /// Per-node total filtering load (TF) across all alive nodes.
  LoadDistribution FilteringLoadDistribution() const;
  /// Attribute-level / value-level shares.
  LoadDistribution AttrFilteringLoadDistribution() const;
  LoadDistribution ValueFilteringLoadDistribution() const;
  /// Per-node storage load (TS).
  LoadDistribution StorageLoadDistribution() const;

  /// Aggregate counters over all nodes.
  NodeMetrics TotalMetrics() const;
  NodeStorage TotalStorage() const;

  /// Zeroes every node's filtering counters (storage is state, not a
  /// counter) and the traffic statistics — used to isolate workload phases.
  void ResetLoadMetrics();

  /// Applies sliding-window expiry across all value-level state; returns
  /// the number of objects dropped. No-op when options.window == 0.
  size_t PruneExpired();

  // --- chord::Application ------------------------------------------------------------

  void HandleMessage(chord::Node& node, const chord::AppMessage& msg) override;
  void HandleStoredItems(chord::Node& node, const chord::NodeId& key,
                         std::vector<chord::PayloadPtr> items) override;

 private:
  // --- ProtocolContext seam (role handlers reach the engine through this) ---

  const AlgorithmStrategy& strategy() const override { return *strategy_; }
  rel::Catalog& GetCatalog() override { return catalog_; }
  Rng& GetRng() override { return rng_; }
  NodeState& StateOf(chord::Node& node) override;
  void Send(chord::Node& from, chord::AppMessage msg) override {
    from.Send(std::move(msg));
  }
  void Multisend(chord::Node& from, std::vector<chord::AppMessage> msgs,
                 sim::MsgClass cls) override {
    from.Multisend(std::move(msgs), cls);
  }
  void TransmitMessage(chord::Node& from, const chord::NodeId& to,
                       chord::AppMessage msg) override {
    chord::HopFrame frame;
    frame.kind = chord::HopFrame::Kind::kDeliver;
    frame.cls = msg.cls;
    frame.msgs.push_back(std::move(msg));
    network_.TransmitHop(&from, to, std::move(frame));
  }
  void CountHop(sim::MsgClass cls) override { network_.CountHop(cls); }
  void RecordBackpressure(bool shed) override {
    if (shed) {
      network_.stats().AddShed();
    } else {
      network_.stats().AddDeferred();
    }
  }
  uint64_t NextReliableId(chord::Node& from) override {
    // Ids embed the node serial so two nodes never collide, and live in
    // NodeState (outside reliability::State) so a crash wiping the
    // volatile tables cannot make a reconnecting node reissue old ids.
    return ((from.serial() + 1) << 32) | ++StateOf(from).next_reliable_seq;
  }
  void ScheduleAfter(chord::Node& node, sim::SimTime delay,
                     sim::Action fn) override {
    simulator_.ScheduleSharded(delay, node.serial(), std::move(fn));
  }
  void ScheduleAfterCancellable(chord::Node& node, sim::SimTime delay,
                                sim::CancelToken cancel,
                                sim::Action fn) override {
    simulator_.ScheduleCancellable(delay, node.serial(), std::move(cancel),
                                   std::move(fn));
  }
  chord::Node* NodeByKey(const std::string& key) override {
    auto it = nodes_by_key_.find(key);
    return it == nodes_by_key_.end() ? nullptr : it->second;
  }
  chord::Node* NodeById(const chord::NodeId& id) override {
    return network_.FindById(id);
  }
  void DepositNotification(chord::Node& node, Notification n) override {
    // Delivery stamp for the serving layer's latency accounting; inbox
    // consumers that predate it ignore the field.
    n.delivered_at = simulator_.Now();
    StateOf(node).subscriber.inbox.push_back(std::move(n));
  }
  void AppendOtjResults(uint64_t otj_id,
                        std::vector<Notification> rows) override {
    auto& out = otj_results_[otj_id];
    out.insert(out.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
  }

  /// Advances virtual time by one unit, so that publication and insertion
  /// times are strictly ordered; applies churn events that became due, and
  /// drains pending events.
  void Tick();

  /// Applies scripted churn events with at <= Now, then repairs.
  void ProcessChurnDue();
  void CrashNodeInternal(chord::Node* node);
  chord::Node* JoinNewNodeInternal();
  /// Registers a node the network just created: state, app hook, key.
  void AddNodeState(chord::Node* node);
  chord::Node* FirstAliveNode() const;

  /// Resolves the entry node for a client operation after Tick(): the
  /// scripted churn applied there may have crashed the node the caller
  /// chose while it was still up, and publishing from a dead process
  /// would silently void the whole batch. A real client notices the dead
  /// connection and resubmits through the next node that is up; probing
  /// in index order keeps the choice deterministic.
  chord::Node* EntryNode(size_t node_index);

  /// Builds and sends the attribute-level index messages for `query` from
  /// `origin` (shared by SubmitQuery and RefreshIndexes).
  void IndexQueryFrom(chord::Node* origin, const query::QueryPtr& query);
  /// Builds and multisends the al-/vl-index batch for `tuple` from
  /// `origin` (shared by InsertTuple and RefreshIndexes).
  void PublishTupleFrom(chord::Node* origin,
                        const std::shared_ptr<const rel::Tuple>& tuple);

  Options options_;
  const AlgorithmStrategy* strategy_;
  sim::Simulator simulator_;
  chord::Network network_;
  rel::Catalog catalog_;
  Rng rng_;

  std::vector<chord::Node*> nodes_;
  /// Engine state per node, indexed by Node::serial(). Serials are dense:
  /// the network numbers nodes in creation order and every node it
  /// creates gets its state here (AddNodeState checks it).
  std::vector<std::unique_ptr<NodeState>> states_;
  std::unordered_map<std::string, chord::Node*> nodes_by_key_;
  /// Live submitted queries by key (subscriber-side bookkeeping), each
  /// with its serial in submission_log_.
  std::unordered_map<std::string, uint64_t> submitted_;

  /// In-flight one-time join results, keyed by otj id.
  std::unordered_map<uint64_t, std::vector<Notification>> otj_results_;
  uint64_t next_otj_id_ = 0;

  uint64_t next_tuple_seq_ = 0;

  // --- Fault tolerance ---------------------------------------------------------

  std::unique_ptr<faults::FaultPlan> fault_plan_;
  faults::ChurnScript churn_script_;
  size_t churn_next_ = 0;  // First unapplied script event.
  uint64_t churn_join_serial_ = 0;
  /// Origin-side durable logs feeding RefreshIndexes, in original order.
  /// Entries keep their engine-assigned keys and timestamps so a replay
  /// reproduces the same match decisions. Queries are keyed by submission
  /// serial, so Unsubscribe drops one without a scan.
  std::map<uint64_t, query::QueryPtr> submission_log_;
  uint64_t next_submission_serial_ = 0;
  std::vector<std::pair<chord::Node*, std::shared_ptr<const rel::Tuple>>>
      publish_log_;
};

}  // namespace contjoin::core

#endif  // CONTJOIN_CORE_ENGINE_H_
