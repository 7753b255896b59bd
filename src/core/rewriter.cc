#include "core/rewriter.h"

#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "chord/node.h"
#include "common/logging.h"
#include "core/adapt_protocol.h"
#include "core/algorithm.h"
#include "core/evaluator.h"
#include "core/messages.h"
#include "core/mw_protocol.h"
#include "core/reliability.h"
#include "core/state.h"

namespace contjoin::core {

void AttrArrivalStats::Record(const std::string& value_key) {
  ++tuples_seen;
  if (value_counts.size() < kMaxTrackedValues ||
      value_counts.count(value_key) > 0) {
    ++value_counts[value_key];
  } else {
    ++overflow_values;
  }
}

void AttrArrivalStats::Merge(const AttrArrivalStats& other) {
  tuples_seen += other.tuples_seen;
  overflow_values += other.overflow_values;
  for (const auto& [value, count] : other.value_counts) {
    if (value_counts.size() < kMaxTrackedValues ||
        value_counts.count(value) > 0) {
      value_counts[value] += count;
    } else {
      overflow_values += count;
    }
  }
}

double AttrArrivalStats::SkewEstimate() const {
  if (tuples_seen == 0) return 0.0;
  uint64_t max_count = 0;
  for (const auto& [value, count] : value_counts) {
    max_count = std::max(max_count, count);
  }
  return static_cast<double>(max_count) / static_cast<double>(tuples_seen);
}

namespace rewriter {

std::string MKey(const std::string& level1, int replica) {
  return level1 + "#" + std::to_string(replica);
}

namespace {

/// True while the node with identifier `id` is in the ring.
bool IsAlive(ProtocolContext& ctx, const chord::NodeId& id) {
  const chord::Node* peer = ctx.NodeById(id);
  return peer != nullptr && peer->alive();
}

}  // namespace

bool ForwardIfMoved(ProtocolContext& ctx, chord::Node& node, State& state,
                    const std::string& mkey, const chord::AppMessage& msg) {
  auto moved = state.moved_attrs.find(mkey);
  if (moved == state.moved_attrs.end()) return false;
  if (!IsAlive(ctx, moved->second.holder)) {
    // The holder left the ring: the role falls back to the base node
    // (best-effort; the moved state is lost, as with any departure).
    state.moved_attrs.erase(moved);
    return false;
  }
  chord::AppMessage copy = msg;
  ctx.TransmitMessage(node, moved->second.holder, std::move(copy));
  return true;
}

void HandleQueryIndex(ProtocolContext& ctx, chord::Node& node,
                      const chord::AppMessage& msg) {
  const auto& p = *static_cast<const QueryIndexPayload*>(msg.payload.get());
  NodeState& state = ctx.StateOf(node);
  std::string mkey = MKey(p.level1, p.replica);
  if (ForwardIfMoved(ctx, node, state.rewriter, mkey, msg)) return;
  ++state.metrics.queries_received;
  state.rewriter.alqt.Insert(mkey, p.query->signature(),
                             AlqtEntry{p.query, p.index_side});
  adapt::OnQueryIndexed(ctx, node, p);
}

namespace {

// --- Rewriting machinery -----------------------------------------------------

struct PendingJoin {
  chord::NodeId vindex;
  std::shared_ptr<JoinPayload> payload;
};
struct PendingDaivJoin {
  chord::NodeId vindex;
  std::shared_ptr<DaivJoinPayload> payload;
};

/// Rewrites the T1 query of `entry` triggered by `tuple` into a
/// select-project query reindexed at the value level (§4.3.2/§4.3.3).
void RewriteT1(ProtocolContext& ctx, chord::Node& node, NodeState& state,
               const AlqtEntry& entry, const rel::Tuple& tuple,
               std::map<std::string, PendingJoin>* out) {
  const query::ContinuousQuery& q = *entry.query;
  const int s = entry.index_side;
  const int o = 1 - s;
  const query::QuerySide& trigger_side = q.side(s);
  const query::QuerySide& remaining = q.side(o);
  CJ_CHECK(remaining.linear.has_value()) << "T1 side lost its linear form";

  auto val_idx = trigger_side.join_expr->EvalSingle(s, tuple);
  if (!val_idx.ok()) return;
  // SQL semantics: a null join value never matches anything.
  if (val_idx.value().is_null()) return;
  rel::ValueType attr_type =
      remaining.schema->attribute(remaining.linear->ref.attr_index).type;
  auto val_da =
      query::InvertLinear(*remaining.linear, attr_type, val_idx.value());
  if (!val_da.has_value()) {
    // No representable solution: the rewritten query could never match, so
    // it is not reindexed (§4.3.2, saving a message).
    ++state.metrics.rewrites_skipped_nosol;
    return;
  }
  std::string value_key = val_da->ToKeyString();

  // Bind the trigger side's select values (the generalized projection).
  RowTemplate row(q.select().size());
  std::string bound;
  for (size_t i = 0; i < q.select().size(); ++i) {
    const query::SelectItem& item = q.select()[i];
    if (item.ref.side == s) {
      row[i] = tuple.at(item.ref.attr_index);
      bound += '\x1f';
      bound += row[i]->ToKeyString();
    }
  }
  // Key(q') = Key(q) + bound select values + valDA (§4.3.3), plus the
  // trigger side: without it, symmetric value coincidences across the two
  // sides of the join condition could collide into one key.
  std::string rewritten_key =
      q.key() + "|" + std::to_string(s) + "|" + bound + "|" + value_key;

  if (ctx.strategy().DeduplicatesRewrites(ctx.options())) {
    if (!state.rewriter.sent_rewritten_keys.insert(rewritten_key).second) {
      ++state.metrics.rewrites_skipped_dup;
      return;
    }
  }

  const std::string& dis_attr =
      remaining.schema->attribute(remaining.linear->ref.attr_index).name;
  const std::string level1 = AttrKey(remaining.relation, dis_attr);

  RewrittenEntry rewritten;
  rewritten.query = entry.query;
  rewritten.remaining_side = o;
  rewritten.rewritten_key = std::move(rewritten_key);
  rewritten.required_value = *val_da;
  rewritten.row = std::move(row);
  rewritten.trigger_pub = tuple.pub_time();
  rewritten.trigger_seq = tuple.seq();

  // Adaptive split fan: a hot value's rewritten queries go to every
  // virtual sub-key, so each shard can match the publications hashed
  // onto it alone. Unsplit values keep the single plain key.
  uint64_t split_version = 0;
  const int split =
      adapt::SplitFor(ctx, state, level1, value_key, &split_version);
  for (int shard = 0; shard < std::max(1, split); ++shard) {
    const std::string sub_key = adapt::SubValueKey(value_key, shard, split);
    std::string vkey_full = ValueKeyOf(remaining.relation, dis_attr, sub_key);
    PendingJoin& pending = (*out)[vkey_full];
    if (pending.payload == nullptr) {
      pending.vindex = HashKey(vkey_full);
      pending.payload = std::make_shared<JoinPayload>();
      pending.payload->level1 = level1;
      pending.payload->value_key = sub_key;
      pending.payload->rewriter = node.id();
      pending.payload->vindex = pending.vindex;
      pending.payload->known_split = std::max(1, split);
      pending.payload->split_version = split_version;
    }
    pending.payload->entries.push_back(rewritten);
    if (ctx.options().track_evaluators) {
      state.rewriter.query_evaluators[q.key()].insert(pending.vindex);
    }
  }
  ++state.metrics.rewrites_sent;
}

/// DAI-V rewrite (§4.5): the trigger tuple's projection travels with the
/// rewritten query to Hash(value) (or Hash(Key(q)+value)).
void RewriteDaiv(ProtocolContext& ctx, chord::Node& node, NodeState& state,
                 const AlqtEntry& entry, const rel::Tuple& tuple,
                 std::map<std::string, PendingDaivJoin>* out) {
  const query::ContinuousQuery& q = *entry.query;
  const int s = entry.index_side;
  auto val_jc = q.side(s).join_expr->EvalSingle(s, tuple);
  if (!val_jc.ok()) return;
  if (val_jc.value().is_null()) return;  // Null join values never match.
  std::string value_key = val_jc.value().ToKeyString();

  RowTemplate row(q.select().size());
  for (size_t i = 0; i < q.select().size(); ++i) {
    const query::SelectItem& item = q.select()[i];
    if (item.ref.side == s) row[i] = tuple.at(item.ref.attr_index);
  }

  DaivEntry daiv_entry;
  daiv_entry.query = entry.query;
  daiv_entry.trigger_side = s;
  daiv_entry.row = std::move(row);
  daiv_entry.trigger_pub = tuple.pub_time();
  daiv_entry.trigger_seq = tuple.seq();

  // Adaptive split fan, side-aware: trigger-side-1 entries replicate to
  // every shard while trigger-side-0 entries hash to their sequence
  // shard, so every pair still meets at exactly one shard. The
  // key-prefixed variant (§4.5) is already partitioned per query and
  // stays unsplit.
  const bool prefixed = ctx.options().daiv_prefix_query_key;
  uint64_t split_version = 0;
  const int split =
      prefixed ? 1 : adapt::SplitFor(ctx, state, "", value_key, &split_version);
  std::vector<int> shards;
  if (split <= 1) {
    shards.push_back(0);
  } else if (s == 0) {
    shards.push_back(adapt::ShardOf(tuple.seq(), split));
  } else {
    for (int j = 0; j < split; ++j) shards.push_back(j);
  }
  for (int shard : shards) {
    const std::string sub_key = adapt::SubValueKey(value_key, shard, split);
    // Group key: DAI-V groups purely by value (here: per sub-key); the
    // key-prefixed variant separates queries and loses grouping — that
    // is its cost.
    std::string group_key = prefixed ? q.key() + "+" + value_key : sub_key;
    PendingDaivJoin& pending = (*out)[group_key];
    if (pending.payload == nullptr) {
      pending.vindex = prefixed ? DaivPrefixedIndexId(q.key(), value_key)
                                : DaivIndexId(sub_key);
      pending.payload = std::make_shared<DaivJoinPayload>();
      pending.payload->value_key = prefixed ? value_key : sub_key;
      pending.payload->rewriter = node.id();
      pending.payload->vindex = pending.vindex;
      pending.payload->known_split = std::max(1, split);
      pending.payload->split_version = split_version;
    }
    pending.payload->entries.push_back(daiv_entry);
    if (ctx.options().track_evaluators) {
      state.rewriter.query_evaluators[q.key()].insert(pending.vindex);
    }
  }
  ++state.metrics.rewrites_sent;
}

/// Sends the grouped per-evaluator payloads: straight to the cached
/// evaluator on a JFRT hit (one hop, §4.7), routed otherwise. A stale
/// cache entry is detected and re-routed by the receiver.
template <typename PendingT>
void DispatchPending(ProtocolContext& ctx, chord::Node& node,
                     NodeState& state, std::map<std::string, PendingT> joins) {
  std::vector<chord::AppMessage> batch;
  for (auto& [vkey, pending] : joins) {
    chord::AppMessage msg;
    msg.target = pending.vindex;
    msg.cls = sim::MsgClass::kRewrittenQuery;
    if (ctx.options().use_jfrt) {
      std::optional<chord::NodeId> cached =
          state.rewriter.jfrt.Lookup(pending.vindex);
      if (cached.has_value() && !IsAlive(ctx, *cached)) {
        // The cached evaluator left the ring: drop the entry and fall back
        // to routing (the new evaluator's ack will refill the table).
        state.rewriter.jfrt.Erase(pending.vindex);
        cached.reset();
      }
      if (cached.has_value()) {
        msg.payload = std::move(pending.payload);
        if (ctx.options().reliability.enabled) {
          reliability::Arm(ctx, node, msg);
        }
        ctx.TransmitMessage(node, *cached, std::move(msg));
        continue;
      }
      pending.payload->want_ack = true;
    }
    msg.payload = std::move(pending.payload);
    batch.push_back(std::move(msg));
  }
  reliability::ArmAll(ctx, node, batch);
  if (batch.size() == 1) {
    ctx.Send(node, std::move(batch[0]));
  } else if (!batch.empty()) {
    ctx.Multisend(node, std::move(batch), sim::MsgClass::kRewrittenQuery);
  }
}

}  // namespace

void HandleTupleAl(ProtocolContext& ctx, chord::Node& node,
                   const chord::AppMessage& msg) {
  const auto& p = *static_cast<const TupleIndexPayload*>(msg.payload.get());
  NodeState& state = ctx.StateOf(node);
  std::string mkey = MKey(p.level1, p.replica);
  if (ForwardIfMoved(ctx, node, state.rewriter, mkey, msg)) return;
  if (adapt::OnAttrTuple(ctx, node, p)) return;
  ++state.metrics.tuples_received_attr;
  ++state.metrics.filter_ops_attr;
  const rel::Tuple& tuple = *p.tuple;
  state.rewriter.attr_stats[mkey].Record(tuple.at(p.attr_index).ToKeyString());

  // Multi-way queries indexed under this key (extension).
  mw::TriggerAll(ctx, node, state, mkey, tuple);

  const AttrLevelQueryTable::GroupMap* groups = state.rewriter.alqt.Find(mkey);
  if (groups == nullptr) return;

  const AlgorithmStrategy& strategy = ctx.strategy();
  std::map<std::string, PendingJoin> t1_joins;
  std::map<std::string, PendingDaivJoin> daiv_joins;
  for (const auto& [signature, group] : *groups) {
    state.metrics.filter_ops_attr += group.size();
    for (const AlqtEntry& entry : group) {
      const query::ContinuousQuery& q = *entry.query;
      // Time semantics: only tuples published at/after insT(q) trigger it.
      if (tuple.pub_time() < q.insertion_time()) continue;
      if (!q.side(entry.index_side).SatisfiesPredicates(tuple)) continue;
      if (strategy.RewritesToDaiv()) {
        RewriteDaiv(ctx, node, state, entry, tuple, &daiv_joins);
      } else {
        RewriteT1(ctx, node, state, entry, tuple, &t1_joins);
      }
    }
  }
  if (!t1_joins.empty()) {
    DispatchPending(ctx, node, state, std::move(t1_joins));
  }
  if (!daiv_joins.empty()) {
    DispatchPending(ctx, node, state, std::move(daiv_joins));
  }
}

void HandleUnsubscribe(ProtocolContext& ctx, chord::Node& node,
                       const chord::AppMessage& msg) {
  const auto& p = *static_cast<const UnsubscribePayload*>(msg.payload.get());
  NodeState& state = ctx.StateOf(node);
  if (p.at_evaluator) {
    evaluator::RemoveQuery(state.evaluator, p.query_key);
    return;
  }
  if (ForwardIfMoved(ctx, node, state.rewriter, MKey(p.level1, p.replica),
                     msg)) {
    return;
  }
  state.rewriter.alqt.RemoveQuery(p.query_key);
  auto tracked = state.rewriter.query_evaluators.find(p.query_key);
  if (tracked == state.rewriter.query_evaluators.end()) return;
  std::vector<chord::AppMessage> batch;
  for (const chord::NodeId& vindex : tracked->second) {
    auto payload = std::make_shared<UnsubscribePayload>();
    payload->query_key = p.query_key;
    payload->at_evaluator = true;
    chord::AppMessage out;
    out.target = vindex;
    out.cls = sim::MsgClass::kControl;
    out.payload = std::move(payload);
    batch.push_back(std::move(out));
  }
  state.rewriter.query_evaluators.erase(tracked);
  if (!batch.empty()) {
    ctx.Multisend(node, std::move(batch), sim::MsgClass::kControl);
  }
}

namespace {

/// One direct control hop carrying §4.7 migration state, armed for
/// retries when reliable delivery is on: a lost transfer would otherwise
/// strand the key's queries.
void SendMigrationState(ProtocolContext& ctx, chord::Node& from,
                        const chord::NodeId& to, chord::PayloadPtr payload) {
  chord::AppMessage msg;
  msg.target = to;
  msg.cls = sim::MsgClass::kControl;
  msg.payload = std::move(payload);
  if (ctx.options().reliability.enabled) reliability::Arm(ctx, from, msg);
  ctx.TransmitMessage(from, to, std::move(msg));
}

/// Moves the bucket this node holds for `mkey` to the successor of the
/// key's next-generation identifier and points the base at it. `base` is
/// zero when this node is the base itself.
void MoveBucket(ProtocolContext& ctx, chord::Node& node, State& state,
                const std::string& mkey, const chord::NodeId& base) {
  auto held = state.held_generation.find(mkey);
  int next_gen = (held == state.held_generation.end() ? 0 : held->second) + 1;
  chord::NodeId new_id = HashKey(mkey + "#m" + std::to_string(next_gen));
  chord::Node* target = node.FindSuccessor(new_id, sim::MsgClass::kControl);
  if (target == nullptr) return;
  if (target == &node) {
    // The fresh identifier still lands here; only the generation advances.
    state.held_generation[mkey] = next_gen;
    return;
  }

  // Move the bucket and its statistics (one control transfer).
  auto bucket = std::make_shared<MigrateBucketPayload>();
  bucket->mkey = mkey;
  bucket->generation = next_gen;
  for (auto& [signature, group] : state.alqt.TakeLevel1(mkey)) {
    for (AlqtEntry& entry : group) bucket->queries.push_back(std::move(entry));
  }
  auto stats = state.attr_stats.find(mkey);
  if (stats != state.attr_stats.end()) {
    bucket->tuples_seen = stats->second.tuples_seen;
    bucket->value_counts = std::move(stats->second.value_counts);
    bucket->overflow_values = stats->second.overflow_values;
    state.attr_stats.erase(stats);
  }
  state.held_generation.erase(mkey);
  SendMigrationState(ctx, node, target->id(), std::move(bucket));

  // Point the base at the new holder.
  if (base == chord::NodeId() || base == node.id()) {
    state.moved_attrs[mkey] = State::MovedAttr{next_gen, target->id()};
    return;
  }
  auto pointer = std::make_shared<MovedPointerPayload>();
  pointer->mkey = mkey;
  pointer->generation = next_gen;
  pointer->holder = target->id();
  SendMigrationState(ctx, node, base, std::move(pointer));
}

}  // namespace

void HandleMigrateCmd(ProtocolContext& ctx, chord::Node& node,
                      const chord::AppMessage& msg) {
  const auto& p = *static_cast<const MigrateCmdPayload*>(msg.payload.get());
  State& state = ctx.StateOf(node).rewriter;
  std::string mkey = MKey(p.level1, p.replica);

  // At the base node of an already-moved key: forward to the holder, with
  // the base recorded so the holder can update our pointer afterwards.
  auto moved = state.moved_attrs.find(mkey);
  if (moved != state.moved_attrs.end() &&
      IsAlive(ctx, moved->second.holder)) {
    auto fwd = std::make_shared<MigrateCmdPayload>(p);
    fwd->base = node.id();
    chord::AppMessage copy = msg;
    copy.payload = std::move(fwd);
    ctx.TransmitMessage(node, moved->second.holder, std::move(copy));
    return;
  }
  MoveBucket(ctx, node, state, mkey, p.base);
}

void HandleMigrateBucket(ProtocolContext& ctx, chord::Node& node,
                         const chord::AppMessage& msg) {
  const auto& p = *static_cast<const MigrateBucketPayload*>(msg.payload.get());
  State& state = ctx.StateOf(node).rewriter;
  for (const AlqtEntry& entry : p.queries) {
    state.alqt.Insert(p.mkey, entry.query->signature(), entry);
  }
  AttrArrivalStats stats;
  stats.tuples_seen = p.tuples_seen;
  stats.value_counts = p.value_counts;
  stats.overflow_values = p.overflow_values;
  state.attr_stats[p.mkey].Merge(stats);
  state.held_generation[p.mkey] = p.generation;
}

void HandleMovedPointer(ProtocolContext& ctx, chord::Node& node,
                        const chord::AppMessage& msg) {
  const auto& p = *static_cast<const MovedPointerPayload*>(msg.payload.get());
  ctx.StateOf(node).rewriter.moved_attrs[p.mkey] =
      State::MovedAttr{p.generation, p.holder};
}

void HandleJfrtAck(ProtocolContext& ctx, chord::Node& node,
                   const chord::AppMessage& msg) {
  const auto& p = *static_cast<const JfrtAckPayload*>(msg.payload.get());
  if (!IsAlive(ctx, p.evaluator)) return;
  ctx.StateOf(node).rewriter.jfrt.Insert(p.vindex, p.evaluator);
}

}  // namespace rewriter
}  // namespace contjoin::core
