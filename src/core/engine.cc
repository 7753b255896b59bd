#include "core/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "common/uint160.h"
#include "core/adapt_protocol.h"
#include "core/codec.h"
#include "core/rewriter.h"
#include "core/subscriber.h"

namespace contjoin::core {

// --- Construction -------------------------------------------------------------

ContinuousQueryNetwork::ContinuousQueryNetwork(Options options)
    : options_(std::move(options)),
      strategy_(&AlgorithmStrategy::For(options_.algorithm)),
      network_(&simulator_, options_.chord),
      rng_(options_.seed) {
  if (options_.faults.active()) {
    fault_plan_ = std::make_unique<faults::FaultPlan>(options_.faults);
    network_.set_fault_plan(fault_plan_.get());
  }
  if (options_.count_wire_bytes) {
    network_.set_frame_sizer(
        [](const chord::HopFrame& frame) { return EncodedFrameSize(frame); });
  }
  nodes_ = network_.BuildIdealRing(options_.num_nodes);
  for (chord::Node* node : nodes_) AddNodeState(node);
}

ContinuousQueryNetwork::~ContinuousQueryNetwork() = default;

void ContinuousQueryNetwork::AddNodeState(chord::Node* node) {
  CJ_CHECK(node->serial() == states_.size()) << "node serials must be dense";
  node->set_app(this);
  states_.push_back(std::make_unique<NodeState>(options_.jfrt_capacity));
  nodes_by_key_[node->key()] = node;
}

NodeState& ContinuousQueryNetwork::StateOf(chord::Node& node) {
  CJ_CHECK(node.serial() < states_.size()) << "node without engine state";
  return *states_[node.serial()];
}

void ContinuousQueryNetwork::Tick() {
  simulator_.AdvanceTo(simulator_.Now() + 1);
  ProcessChurnDue();
}

// --- Message dispatch ---------------------------------------------------------------

void ContinuousQueryNetwork::HandleMessage(chord::Node& node,
                                           const chord::AppMessage& msg) {
  MessageDispatcher::Default().Dispatch(*this, node, msg);
}

void ContinuousQueryNetwork::HandleStoredItems(
    chord::Node& node, const chord::NodeId& key,
    std::vector<chord::PayloadPtr> items) {
  subscriber::AbsorbStoredItems(*this, node, key, std::move(items));
}

// --- Results & dynamics ---------------------------------------------------------------

std::vector<Notification> ContinuousQueryNetwork::TakeNotifications(
    size_t node_index) {
  CJ_CHECK(node_index < nodes_.size());
  subscriber::State& sub = StateOf(*nodes_[node_index]).subscriber;
  std::vector<Notification> out = std::move(sub.inbox);
  sub.inbox.clear();
  return out;
}

size_t ContinuousQueryNetwork::PendingNotifications(size_t node_index) const {
  CJ_CHECK(node_index < nodes_.size());
  return states_[nodes_[node_index]->serial()]->subscriber.inbox.size();
}

void ContinuousQueryNetwork::DisconnectNode(size_t node_index) {
  CJ_CHECK(node_index < nodes_.size());
  nodes_[node_index]->LeaveGracefully();
  network_.RewireIdeal();
  simulator_.Run();
}

void ContinuousQueryNetwork::ReconnectNode(size_t node_index, bool new_ip) {
  CJ_CHECK(node_index < nodes_.size());
  chord::Node* node = nodes_[node_index];
  chord::Node* bootstrap = nullptr;
  for (chord::Node* n : nodes_) {
    if (n->alive()) {
      bootstrap = n;
      break;
    }
  }
  CJ_CHECK(bootstrap != nullptr) << "no alive node to bootstrap from";
  node->Reconnect(bootstrap, new_ip);
  network_.RewireIdeal();
  simulator_.Run();
}

// --- Fault tolerance -----------------------------------------------------------------

void ContinuousQueryNetwork::InstallChurnScript(faults::ChurnScript script) {
  CJ_CHECK(script.IsSorted()) << "churn events must be time-sorted";
  churn_script_ = std::move(script);
  churn_next_ = 0;
}

void ContinuousQueryNetwork::ProcessChurnDue() {
  bool crashed = false;
  bool changed = false;
  while (churn_next_ < churn_script_.events.size() &&
         churn_script_.events[churn_next_].at <= simulator_.Now()) {
    const faults::ChurnEvent& ev = churn_script_.events[churn_next_++];
    if (ev.kind == faults::ChurnEvent::Kind::kCrash) {
      // Never crash the last node; the script event is simply skipped.
      if (network_.alive_count() <= 1) continue;
      std::vector<chord::Node*> alive;
      alive.reserve(network_.alive_count());
      for (chord::Node* n : nodes_) {
        if (n->alive()) alive.push_back(n);
      }
      CrashNodeInternal(alive[ev.ordinal % alive.size()]);
      crashed = true;
    } else {
      JoinNewNodeInternal();
    }
    changed = true;
  }
  if (!changed) return;
  network_.RewireIdeal();
  // Retransmit-on-route-change: every survivor re-sends its un-acked
  // messages against the healed ring before the drain, so recovery is
  // bounded by hop latency, not by wherever each message happened to be
  // in its exponential backoff when its target died.
  if (options_.reliability.enabled) {
    for (chord::Node* n : nodes_) {
      if (n->alive()) reliability::RetransmitPending(*this, *n);
    }
  }
  simulator_.Run();
  if (options_.reliability.enabled) {
    // Soft-state repair: index handoff, then re-index refresh.
    ReconcilePlacement();
    // Joins only displace responsibility (handled by the handoff above);
    // crashes destroy state, which only the origin logs can rebuild.
    if (crashed) RefreshIndexes();
  }
}

void ContinuousQueryNetwork::CrashNode(size_t node_index) {
  CJ_CHECK(node_index < nodes_.size());
  CJ_CHECK(network_.alive_count() > 1) << "cannot crash the last node";
  CrashNodeInternal(nodes_[node_index]);
  network_.RewireIdeal();
  simulator_.Run();
}

void ContinuousQueryNetwork::CrashNodeInternal(chord::Node* node) {
  if (!node->alive()) return;
  node->Fail();
  NodeState& state = StateOf(*node);
  // The process dies: every protocol table is gone. The subscriber inbox
  // and query serial survive — they model client-side application state,
  // not overlay state.
  state.rewriter = rewriter::State(options_.jfrt_capacity);
  state.evaluator = evaluator::State();
  state.mw = mw::State();
  state.otj = otj::State();
  state.reliability = reliability::State();
  state.adapt = ::contjoin::adapt::AdaptState();
  state.subscriber.subscriber_addr.clear();
  // Serving-path overlay state dies too: buffered digests and in-flight
  // slots are process memory, not client state.
  state.subscriber.digest_buffer.clear();
  state.subscriber.digest_flush_scheduled = false;
  state.subscriber.inflight = 0;
  node->store().ExtractAll();  // Ring-stored items die with the node.
}

chord::Node* ContinuousQueryNetwork::JoinNewNodeInternal() {
  chord::Node* node = network_.CreateNode(
      "churn-" + std::to_string(churn_join_serial_++));
  node->SetAliveDirect(true);
  network_.OnNodeBirth();
  AddNodeState(node);
  nodes_.push_back(node);
  return node;
}

size_t ContinuousQueryNetwork::JoinNewNode() {
  JoinNewNodeInternal();
  network_.RewireIdeal();
  simulator_.Run();
  return nodes_.size() - 1;
}

chord::Node* ContinuousQueryNetwork::FirstAliveNode() const {
  for (chord::Node* node : nodes_) {
    if (node->alive()) return node;
  }
  return nullptr;
}

chord::Node* ContinuousQueryNetwork::EntryNode(size_t node_index) {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    chord::Node* node = nodes_[(node_index + i) % nodes_.size()];
    if (node->alive()) return node;
  }
  CJ_CHECK(false) << "no alive node";  // Churn never crashes the last node.
  return nullptr;
}

size_t ContinuousQueryNetwork::ReconcilePlacement() {
  size_t moved = 0;
  auto transfer = [this, &moved](size_t objects) {
    network_.CountHop(sim::MsgClass::kControl);
    moved += objects;
  };
  // Re-homes one value-level table of `node`. A bucket stored whole — an
  // unsplit one, or a split family's replicated one — stays if `node` is
  // one of its homes and is otherwise copied to each; a split family's
  // partitioned bucket sends each entry to its sequence shard's home.
  // Crash-lost copies are recovered by index replay, as in the base
  // protocol.
  auto rehome = [this, &transfer]<typename Policy>(
                    chord::Node* node,
                    ValueLevelTable<Policy> evaluator::State::*member,
                    auto split_of, auto home_id) {
    ValueLevelTable<Policy>& table = StateOf(*node).evaluator.*member;
    for (const auto& [level1, key2] : table.BucketKeys()) {
      const int split = split_of(level1, key2);
      const Placement placement =
          split > 1 ? Policy::PlacementOf(key2) : Placement::kReplicated;
      auto home_at = [&](int shard) {
        return network_.OracleSuccessor(home_id(level1, key2, shard, split));
      };
      if (placement == Placement::kReplicated) {
        const adapt::ShardRange shards = adapt::HomeShards(placement, 0, split);
        bool is_home = false;
        std::vector<chord::Node*> homes;
        for (int j = shards.first; j < shards.last; ++j) {
          chord::Node* home = home_at(j);
          if (home == nullptr) continue;
          if (home == node) {
            is_home = true;
          } else if (std::find(homes.begin(), homes.end(), home) ==
                     homes.end()) {
            homes.push_back(home);
          }
        }
        if (is_home || homes.empty()) continue;
        auto bucket = table.TakeBucket(level1, key2);
        for (chord::Node* home : homes) {
          (StateOf(*home).evaluator.*member)
              .AbsorbBucket(level1, key2, bucket);
          transfer(bucket.size());
        }
        continue;
      }
      auto bucket = table.TakeBucket(level1, key2);
      typename Policy::Bucket keep;
      for (int j = 0; j < split; ++j) {
        chord::Node* home = home_at(j);
        typename Policy::Bucket group;
        for (const auto& entry : bucket) {
          if (adapt::HomeShards(placement, Policy::SeqOf(entry), split)
                  .first == j) {
            group.insert(group.end(), entry);
          }
        }
        if (group.empty()) continue;
        if (home == nullptr || home == node) {
          for (auto& entry : group) keep.insert(keep.end(), std::move(entry));
          continue;
        }
        const size_t objects = group.size();
        (StateOf(*home).evaluator.*member)
            .AbsorbBucket(level1, key2, std::move(group));
        transfer(objects);
      }
      if (!keep.empty()) table.AbsorbBucket(level1, key2, std::move(keep));
    }
  };
  // Adaptive directory sync: union every surviving directory and write it
  // back, so all owners (including freshly joined nodes) agree on each
  // family's live shard set before buckets are re-homed below.
  if (options_.adapt.enabled) {
    ::contjoin::adapt::Directory merged;
    for (chord::Node* node : nodes_) {
      if (node->alive()) merged.MergeFrom(StateOf(*node).adapt.directory);
    }
    for (chord::Node* node : nodes_) {
      if (node->alive()) StateOf(*node).adapt.directory.MergeFrom(merged);
    }
  }
  for (chord::Node* node : nodes_) {
    if (!node->alive()) continue;
    NodeState& state = StateOf(*node);

    // ALQT buckets, keyed "R+A#<replica>". Buckets holding a moved
    // identifier's generation (§4.7) live away from their base identifier
    // on purpose and keep doing so; the base forwarding pointer covers them.
    for (const std::string& mkey : state.rewriter.alqt.Level1Keys()) {
      if (state.rewriter.held_generation.count(mkey) > 0) continue;
      size_t pos = mkey.rfind('#');
      CJ_CHECK(pos != std::string::npos) << "malformed ALQT key " << mkey;
      int replica = std::stoi(mkey.substr(pos + 1));
      chord::Node* home = network_.OracleSuccessor(
          AttrIndexIdOfKey(mkey.substr(0, pos), replica));
      if (home == nullptr || home == node) continue;
      auto bucket = state.rewriter.alqt.TakeLevel1(mkey);
      size_t objects = 0;
      for (const auto& [signature, group] : bucket) objects += group.size();
      StateOf(*home).rewriter.alqt.AbsorbLevel1(mkey, std::move(bucket));
      auto stats = state.rewriter.attr_stats.find(mkey);
      if (stats != state.rewriter.attr_stats.end()) {
        StateOf(*home).rewriter.attr_stats[mkey].Merge(stats->second);
        state.rewriter.attr_stats.erase(stats);
      }
      transfer(objects);
    }

    // Value-level buckets: unsplit, home = Successor of the bucket's own
    // identifier — Hash(level1 + "+" + value) for the VLQT and VLTT;
    // Hash(value), or Hash(Key(q)+value) when key-prefixed, for the DAI-V
    // store. A split family keys its buckets by the base value but keeps
    // them at their virtual sub-key homes (adapt::HomeShards).
    const bool prefixed = options_.daiv_prefix_query_key;
    auto value_split = [&](const std::string& level1,
                           const std::string& value) {
      return options_.adapt.enabled
                 ? state.adapt.directory.SplitOf(level1, value)
                 : 1;
    };
    auto value_home = [](const std::string& level1, const std::string& value,
                         int shard, int split) {
      return ValueIndexIdOfKey(level1, adapt::SubValueKey(value, shard, split));
    };
    auto daiv_split = [&](const std::string& value, const DaivKey&) {
      return options_.adapt.enabled && !prefixed
                 ? state.adapt.directory.SplitOf("", value)
                 : 1;
    };
    auto daiv_home = [prefixed](const std::string& value, const DaivKey& key,
                                int shard, int split) {
      return prefixed ? DaivPrefixedIndexId(key.query_key, value)
                      : DaivIndexId(adapt::SubValueKey(value, shard, split));
    };
    rehome(node, &evaluator::State::vlqt, value_split, value_home);
    rehome(node, &evaluator::State::vltt, value_split, value_home);
    rehome(node, &evaluator::State::daiv, daiv_split, daiv_home);

    // DHT-stored items (notifications for off-line subscribers): re-place
    // each key at its current successor.
    auto stored = node->store().ExtractAll();
    for (auto& [key, items] : stored) {
      chord::Node* home = network_.OracleSuccessor(key);
      if (home == nullptr) home = node;
      if (home != node) transfer(items.size());
      for (chord::PayloadPtr& item : items) {
        home->store().Put(key, std::move(item));
      }
    }
  }
  return moved;
}

void ContinuousQueryNetwork::RefreshIndexes() {
  // DAI-T's rewrite dedup would suppress re-creating exactly the rewritten
  // state a crash destroyed: reset it before replaying. Over-rewriting is
  // safe — receiver-side table inserts are idempotent and redundant
  // notifications collapse at the subscriber.
  for (chord::Node* node : nodes_) {
    if (!node->alive()) continue;
    StateOf(*node).rewriter.sent_rewritten_ids.Clear();
  }
  for (const auto& [serial, query] : submission_log_) {
    chord::Node* origin = NodeByKey(query->subscriber_key());
    if (origin == nullptr || !origin->alive()) origin = FirstAliveNode();
    if (origin == nullptr) return;
    IndexQueryFrom(origin, query);
    simulator_.Run();
  }
  for (const auto& [publisher, tuple] : publish_log_) {
    chord::Node* origin = publisher->alive() ? publisher : FirstAliveNode();
    if (origin == nullptr) return;
    PublishTupleFrom(origin, tuple);
    simulator_.Run();
  }
}

// --- Metrics -------------------------------------------------------------------------

const NodeMetrics& ContinuousQueryNetwork::metrics(size_t node_index) const {
  CJ_CHECK(node_index < nodes_.size());
  return states_[nodes_[node_index]->serial()]->metrics;
}

NodeStorage ContinuousQueryNetwork::storage(size_t node_index) const {
  CJ_CHECK(node_index < nodes_.size());
  const chord::Node* node = nodes_[node_index];
  const NodeState& state = *states_[node->serial()];
  NodeStorage out;
  out.alqt_queries = state.rewriter.alqt.size();
  out.vlqt_rewritten = state.evaluator.vlqt.size();
  out.vltt_tuples = state.evaluator.vltt.size();
  out.daiv_entries = state.evaluator.daiv.size();
  out.stored_notifications = const_cast<chord::Node*>(node)->store().size();
  out.mw_queries = state.mw.alqt_size;
  out.mw_partials = state.mw.vlqt.size();
  return out;
}

const NodeState* ContinuousQueryNetwork::state(size_t node_index) const {
  CJ_CHECK(node_index < nodes_.size());
  return states_[nodes_[node_index]->serial()].get();
}

namespace {

/// Per-alive-node load distribution over an arbitrary projection.
template <typename Fn>
LoadDistribution DistributionOver(const std::vector<chord::Node*>& nodes,
                                  Fn&& load_of) {
  LoadDistribution out;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (!nodes[i]->alive()) continue;
    out.Add(static_cast<double>(load_of(i)));
  }
  return out;
}

}  // namespace

LoadDistribution ContinuousQueryNetwork::FilteringLoadDistribution() const {
  return DistributionOver(
      nodes_, [this](size_t i) { return metrics(i).TotalFilterOps(); });
}

LoadDistribution ContinuousQueryNetwork::AttrFilteringLoadDistribution()
    const {
  return DistributionOver(
      nodes_, [this](size_t i) { return metrics(i).filter_ops_attr; });
}

LoadDistribution ContinuousQueryNetwork::ValueFilteringLoadDistribution()
    const {
  return DistributionOver(
      nodes_, [this](size_t i) { return metrics(i).filter_ops_value; });
}

LoadDistribution ContinuousQueryNetwork::StorageLoadDistribution() const {
  return DistributionOver(nodes_,
                          [this](size_t i) { return storage(i).Total(); });
}

NodeMetrics ContinuousQueryNetwork::TotalMetrics() const {
  NodeMetrics total;
  for (const auto& state : states_) total.Accumulate(state->metrics);
  return total;
}

NodeStorage ContinuousQueryNetwork::TotalStorage() const {
  NodeStorage total;
  for (size_t i = 0; i < nodes_.size(); ++i) total.Accumulate(storage(i));
  return total;
}

void ContinuousQueryNetwork::ResetLoadMetrics() {
  for (auto& state : states_) state->metrics.Reset();
  network_.stats().Reset();
}

size_t ContinuousQueryNetwork::PruneExpired() {
  if (options_.window == 0) return 0;
  rel::Timestamp now_time = simulator_.Now();
  rel::Timestamp cutoff =
      now_time > options_.window ? now_time - options_.window : 0;
  size_t dropped = 0;
  for (auto& state : states_) {
    dropped += evaluator::ExpireBefore(state->evaluator, cutoff);
  }
  return dropped;
}

}  // namespace contjoin::core
