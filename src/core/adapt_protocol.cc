#include "core/adapt_protocol.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adapt/planner.h"
#include "adapt/policy.h"
#include "chord/node.h"
#include "core/reliability.h"
#include "core/rewriter.h"
#include "core/state.h"
#include "core/tables.h"

// Every adapt-originated payload is constructed in this translation unit
// and handed to reliability::SendReliable in the same function, so the
// critical kinds (kQueryIndex, kTupleAl, kTupleVl, kJoin, kDaivJoin,
// kAdaptSplit) are armed right where they are created. Re-placement
// replays carry known_split == 0 — "process where this lands" — and a
// zero rewriter id, so they never trigger JFRT acks.

namespace contjoin::core::adapt {
namespace {

namespace la = ::contjoin::adapt;

uint64_t EpochOf(const ProtocolContext& ctx) {
  const uint64_t len = std::max<uint64_t>(1, ctx.options().adapt.epoch_len);
  return static_cast<uint64_t>(ctx.now()) / len;
}

/// Home identifier of a value-family sub-key: T1 families hash
/// (level1, sub_key); DAI-V families (empty level1) hash the sub-key.
chord::NodeId HomeOf(const std::string& level1, const std::string& sub_key) {
  return level1.empty() ? DaivIndexId(sub_key)
                        : ValueIndexIdOfKey(level1, sub_key);
}

/// The live sub-keys of a family under split factor `split` (the plain
/// base value when unsplit).
std::vector<std::string> LiveSubKeys(const std::string& base, int split) {
  std::vector<std::string> keys;
  if (split <= 1) {
    keys.push_back(base);
    return keys;
  }
  keys.reserve(static_cast<size_t>(split));
  for (int j = 0; j < split; ++j) {
    keys.push_back(la::ShardValueKey(base, j, split));
  }
  return keys;
}

/// Liveness of an arrived key (`shard` = parsed index, -1 for the plain
/// base) under split factor `split`.
bool KeyLive(int shard, int split) {
  if (shard < 0) return split <= 1;
  return split > 1 && shard < split;
}

/// Splits an arrived value key into (base, shard); shard -1 = plain.
void ParseArrivedKey(const std::string& value_key, std::string* base,
                     int* shard) {
  *base = value_key;
  *shard = -1;
  std::string parsed;
  int s = 0;
  if (la::ParseShardSuffix(value_key, &parsed, &s)) {
    *base = parsed;
    *shard = s;
  }
}

/// Does `node` own any live sub-key of the family? A node that does can
/// keep all of the family's state: the replicated side (T1 rewritten
/// queries; DAI-V side-1 entries) fans to every live shard, so
/// partitioned-side state stored next to any live shard still meets
/// every future match. Only holders with no live shard strand.
bool OwnsLiveShard(const chord::Node& node, const std::string& level1,
                   const std::string& base, int split) {
  for (const std::string& key : LiveSubKeys(base, split)) {
    if (node.IsResponsibleFor(HomeOf(level1, key))) return true;
  }
  return false;
}

/// Sends one directed split directive (kAdaptSplit is critical, so the
/// send is armed when reliability is on).
void SendSplitDirective(ProtocolContext& ctx, chord::Node& from,
                        const chord::NodeId& target, const std::string& level1,
                        const std::string& base, int split, uint64_t version) {
  auto payload = std::make_shared<AdaptSplitPayload>();
  payload->level1 = level1;
  payload->value = base;
  payload->split = split;
  payload->version = version;
  chord::AppMessage msg;
  msg.target = target;
  msg.cls = sim::MsgClass::kControl;
  msg.payload = std::move(payload);
  reliability::SendReliable(ctx, from, std::move(msg));
}

/// Ships rewritten-query entries to one sub-key home as a replay batch.
void ShipJoinEntries(ProtocolContext& ctx, chord::Node& from,
                     const std::string& level1, const std::string& sub_key,
                     std::vector<RewrittenEntry> entries) {
  if (entries.empty()) return;
  auto payload = std::make_shared<JoinPayload>();
  payload->level1 = level1;
  payload->value_key = sub_key;
  payload->vindex = ValueIndexIdOfKey(level1, sub_key);
  payload->known_split = 0;
  payload->entries = std::move(entries);
  chord::AppMessage msg;
  msg.target = payload->vindex;
  msg.cls = sim::MsgClass::kControl;
  msg.payload = std::move(payload);
  reliability::SendReliable(ctx, from, std::move(msg));
}

std::vector<RewrittenEntry> BucketToEntries(
    const ValueLevelQueryTable::Bucket& bucket) {
  std::vector<RewrittenEntry> entries;
  entries.reserve(bucket.size());
  for (const auto& [id, sr] : bucket) {
    RewrittenEntry entry;
    entry.query = sr.query;
    entry.remaining_side = sr.remaining_side;
    entry.rewritten_id = id;
    entry.required_value = sr.required_value;
    entry.trigger = sr.trigger;
    entries.push_back(std::move(entry));
  }
  return entries;
}

/// Re-ships one stored tuple to a sub-key home (vl-index replay).
void ShipStoredTuple(ProtocolContext& ctx, chord::Node& from,
                     const std::string& level1, const std::string& sub_key,
                     const StoredTuple& stored) {
  auto payload = std::make_shared<TupleIndexPayload>(/*value_level=*/true);
  payload->tuple = stored.tuple;
  payload->attr_index = stored.index_attr;
  payload->level1 = level1;
  payload->value_key = sub_key;
  chord::AppMessage msg;
  msg.target = ValueIndexIdOfKey(level1, sub_key);
  msg.cls = sim::MsgClass::kControl;
  msg.payload = std::move(payload);
  reliability::SendReliable(ctx, from, std::move(msg));
}

/// Ships DAI-V entries (rebuilt from stored projections) to one sub-key
/// as a replay batch.
void ShipDaivEntries(ProtocolContext& ctx, chord::Node& from,
                     const std::string& sub_key,
                     std::vector<DaivEntry> entries) {
  if (entries.empty()) return;
  auto payload = std::make_shared<DaivJoinPayload>();
  payload->value_key = sub_key;
  payload->vindex = DaivIndexId(sub_key);
  payload->known_split = 0;
  payload->entries = std::move(entries);
  chord::AppMessage msg;
  msg.target = payload->vindex;
  msg.cls = sim::MsgClass::kControl;
  msg.payload = std::move(payload);
  reliability::SendReliable(ctx, from, std::move(msg));
}

DaivEntry RebuildDaivEntry(const DaivStored& stored, int side) {
  DaivEntry entry;
  entry.query = stored.query;
  entry.trigger_side = side;
  entry.trigger = stored.tuple;
  return entry;
}

/// Re-places every piece of family state held by a node that no longer
/// owns a live sub-key; a node owning at least one live shard keeps
/// everything (see OwnsLiveShard). Each entry goes to its HomeShards.
void SweepFamily(ProtocolContext& ctx, chord::Node& node, NodeState& state,
                 const std::string& level1, const std::string& base) {
  const int split = state.adapt.directory.SplitOf(level1, base);
  if (OwnsLiveShard(node, level1, base, split)) return;
  if (!level1.empty()) {
    // T1 family: one batch of rewritten queries per home shard, then each
    // stored tuple on its own.
    ValueLevelQueryTable::Bucket joins =
        state.evaluator.vlqt.TakeBucket(level1, base);
    if (!joins.empty()) {
      std::vector<RewrittenEntry> entries = BucketToEntries(joins);
      const ShardRange shards =
          HomeShards(VlqtPolicy::PlacementOf(base), 0, split);
      for (int j = shards.first; j < shards.last; ++j) {
        ShipJoinEntries(ctx, node, level1, la::ShardValueKey(base, j, split),
                        entries);
      }
    }
    ValueLevelTupleTable::Bucket tuples =
        state.evaluator.vltt.TakeBucket(level1, base);
    for (const StoredTuple& stored : tuples) {
      const ShardRange shards = HomeShards(VlttPolicy::PlacementOf(base),
                                           VlttPolicy::SeqOf(stored), split);
      ShipStoredTuple(ctx, node, level1,
                      la::ShardValueKey(base, shards.first, split), stored);
    }
    ++state.metrics.adapt_reships;
    return;
  }
  // DAI-V family: the entries of every (query, side) bucket, batched per
  // target sub-key.
  std::map<std::string, std::vector<DaivEntry>> by_target;
  for (const auto& [value_key, key2] : state.evaluator.daiv.BucketKeys()) {
    if (value_key != base) continue;
    DaivStore::Bucket bucket = state.evaluator.daiv.TakeBucket(base, key2);
    for (const DaivStored& stored : bucket) {
      const ShardRange shards = HomeShards(DaivPolicy::PlacementOf(key2),
                                           DaivPolicy::SeqOf(stored), split);
      for (int j = shards.first; j < shards.last; ++j) {
        by_target[la::ShardValueKey(base, j, split)].push_back(
            RebuildDaivEntry(stored, key2.side));
      }
    }
  }
  for (auto& [key, entries] : by_target) {
    ShipDaivEntries(ctx, node, key, std::move(entries));
  }
  ++state.metrics.adapt_reships;
}

/// Performs this node's local transition for the newest known split
/// directive of a family, at most once per directive version.
void ActOnSplit(ProtocolContext& ctx, chord::Node& node, NodeState& state,
                const std::string& level1, const std::string& base) {
  const la::Directive* d = state.adapt.directory.FindSplit(level1, base);
  if (d == nullptr || d->version == 0) return;
  uint64_t& acted = state.adapt.acted_split[la::FamilyKey(level1, base)];
  if (acted >= d->version) return;
  acted = d->version;
  SweepFamily(ctx, node, state, level1, base);
}

/// Copies the replicated side of a family (T1 rewritten queries; DAI-V
/// side-1 entries) to shards [lo, hi) after an escalation the decider
/// survived. The partitioned side needs no copy: its entries already
/// sit next to a live shard.
void TopUpFamily(ProtocolContext& ctx, chord::Node& node, NodeState& state,
                 const std::string& level1, const std::string& base, int split,
                 int lo, int hi) {
  if (!level1.empty()) {
    const auto* bucket = state.evaluator.vlqt.Find(level1, base);
    if (bucket == nullptr || bucket->empty()) return;
    std::vector<RewrittenEntry> entries = BucketToEntries(*bucket);
    for (int j = lo; j < hi; ++j) {
      ShipJoinEntries(ctx, node, level1, la::ShardValueKey(base, j, split),
                      entries);
    }
    return;
  }
  std::vector<DaivEntry> entries;
  for (const auto& [value_key, key2] : state.evaluator.daiv.BucketKeys()) {
    if (value_key != base ||
        DaivPolicy::PlacementOf(key2) != Placement::kReplicated) {
      continue;
    }
    for (const DaivStored& stored : *state.evaluator.daiv.Find(base, key2)) {
      entries.push_back(RebuildDaivEntry(stored, key2.side));
    }
  }
  for (int j = lo; j < hi; ++j) {
    ShipDaivEntries(ctx, node, la::ShardValueKey(base, j, split), entries);
  }
}

/// Records `weight` arrivals for a value family at its decider and runs
/// the split policy; a changed proposal is applied locally, acted on
/// (sweep or top-up) and published.
void DecideValue(ProtocolContext& ctx, chord::Node& node, NodeState& state,
                 const std::string& level1, const std::string& base,
                 uint64_t weight) {
  const la::Params& params = ctx.options().adapt;
  const uint64_t epoch = EpochOf(ctx);
  const std::string family = la::FamilyKey(level1, base);
  const uint64_t rate = state.adapt.value_load.Record(family, epoch, weight);
  const la::Directive* d = state.adapt.directory.FindSplit(level1, base);
  const int current = d == nullptr ? 1 : d->level;
  if (d != nullptr && d->version > 0 &&
      epoch < d->changed_epoch + params.dwell_epochs) {
    return;
  }
  const int next = la::ProposeSplit(params, rate, current);
  if (next == current) return;
  const uint64_t version = (d == nullptr ? 0 : d->version) + 1;
  state.adapt.directory.ApplySplit(level1, base, next, version, epoch);
  state.adapt.acted_split[family] = version;
  ++state.metrics.adapt_directives;
  // Local transition first: the shard set changed under this node.
  if (!OwnsLiveShard(node, level1, base, next)) {
    SweepFamily(ctx, node, state, level1, base);
  } else if (next > current) {
    // New shards need the replicated side. An escalation from the plain
    // scheme moves live duty to "#s" sub-keys wholesale, so every shard
    // (including 0) counts as new.
    const int lo = current == 1 ? 0 : current;
    TopUpFamily(ctx, node, state, level1, base, next, lo, next);
  }
  // Publish: a best-effort broadcast refreshes every directory, and
  // directed armed copies reach the owners that must act even if
  // broadcast frames are lost. The plain base owner is included — it
  // takes over live duty when the family cools back to 1.
  auto bc = std::make_shared<AdaptSplitPayload>();
  bc->level1 = level1;
  bc->value = base;
  bc->split = next;
  bc->version = version;
  node.Broadcast(bc, sim::MsgClass::kControl);
  const int span = std::max(current, next);
  for (const std::string& key : LiveSubKeys(base, span)) {
    SendSplitDirective(ctx, node, HomeOf(level1, key), level1, base, next,
                       version);
  }
  SendSplitDirective(ctx, node, HomeOf(level1, base), level1, base, next,
                     version);
}

/// Records one arrival for an attribute-level key at replica 0 and runs
/// the replication policy; escalations ship the replica-0 query bucket
/// to the new replicas as ordinary (armed) kQueryIndex messages.
void DecideAttr(ProtocolContext& ctx, chord::Node& node, NodeState& state,
                const std::string& level1) {
  const la::Params& params = ctx.options().adapt;
  const uint64_t epoch = EpochOf(ctx);
  const uint64_t rate = state.adapt.attr_load.Record(level1, epoch, 1);
  const int base = std::max(1, ctx.options().attribute_replication);
  const la::Directive* d = state.adapt.directory.FindReplicas(level1);
  const int current = state.adapt.directory.ReplicasOf(level1, base);
  if (d != nullptr && d->version > 0 &&
      epoch < d->changed_epoch + params.dwell_epochs) {
    return;
  }
  const int next = la::ProposeReplicas(params, rate, current, base);
  if (next == current) return;
  const uint64_t version = (d == nullptr ? 0 : d->version) + 1;
  state.adapt.directory.ApplyReplicas(level1, next, version, epoch);
  ++state.metrics.adapt_directives;
  if (next > current) {
    // Ship the replica-0 bucket to each new replica. ALQT inserts are
    // idempotent, so overlap with per-arrival top-ups is harmless. A
    // cooldown ships nothing: dropped replicas keep their (now stale)
    // buckets and OnAttrTuple redirects arrivals away from them.
    const auto* groups = state.rewriter.alqt.Find(rewriter::MKey(level1, 0));
    if (groups != nullptr) {
      for (int r = current; r < next; ++r) {
        for (const auto& [signature, group] : *groups) {
          for (const AlqtEntry& stored : group) {
            auto payload = std::make_shared<QueryIndexPayload>();
            payload->query = stored.query;
            payload->index_side = stored.index_side;
            payload->level1 = level1;
            payload->replica = r;
            chord::AppMessage msg;
            msg.target = AttrIndexIdOfKey(level1, r);
            msg.cls = sim::MsgClass::kQueryIndex;
            msg.payload = std::move(payload);
            reliability::SendReliable(ctx, node, std::move(msg));
          }
        }
        ++state.metrics.adapt_reships;
      }
    }
  }
  auto bc = std::make_shared<AdaptReplicatePayload>();
  bc->level1 = level1;
  bc->replicas = next;
  bc->version = version;
  node.Broadcast(bc, sim::MsgClass::kControl);
}

/// Re-dispatches a join batch addressed to a dead sub-key across the
/// live shard set, stamped with the local directive so receivers learn
/// it. The rewriter id is dropped: JFRT bookkeeping ended at the first
/// hop.
void RedispatchJoin(ProtocolContext& ctx, chord::Node& node, NodeState& state,
                    const JoinPayload& p, const std::string& base, int split) {
  const la::Directive* d = state.adapt.directory.FindSplit(p.level1, base);
  const uint64_t version = d == nullptr ? 0 : d->version;
  for (const std::string& key : LiveSubKeys(base, split)) {
    auto copy = std::make_shared<JoinPayload>();
    copy->level1 = p.level1;
    copy->value_key = key;
    copy->entries = p.entries;
    copy->vindex = ValueIndexIdOfKey(p.level1, key);
    copy->known_split = split;
    copy->split_version = version;
    chord::AppMessage msg;
    msg.target = copy->vindex;
    msg.cls = sim::MsgClass::kRewrittenQuery;
    msg.payload = std::move(copy);
    reliability::SendReliable(ctx, node, std::move(msg));
  }
  ++state.metrics.adapt_redirects;
}

/// DAI-V counterpart of RedispatchJoin: each entry goes to its
/// HomeShards by trigger side.
void RedispatchDaiv(ProtocolContext& ctx, chord::Node& node, NodeState& state,
                    const DaivJoinPayload& p, const std::string& base,
                    int split) {
  const la::Directive* d = state.adapt.directory.FindSplit("", base);
  const uint64_t version = d == nullptr ? 0 : d->version;
  std::map<std::string, std::vector<DaivEntry>> by_target;
  for (const DaivEntry& entry : p.entries) {
    const ShardRange shards = HomeShards(DaivPlacement(entry.trigger_side),
                                         entry.trigger->seq(), split);
    for (int j = shards.first; j < shards.last; ++j) {
      by_target[la::ShardValueKey(base, j, split)].push_back(entry);
    }
  }
  for (auto& [key, entries] : by_target) {
    auto copy = std::make_shared<DaivJoinPayload>();
    copy->value_key = key;
    copy->entries = std::move(entries);
    copy->vindex = DaivIndexId(key);
    copy->known_split = split;
    copy->split_version = version;
    chord::AppMessage msg;
    msg.target = copy->vindex;
    msg.cls = sim::MsgClass::kRewrittenQuery;
    msg.payload = std::move(copy);
    reliability::SendReliable(ctx, node, std::move(msg));
  }
  ++state.metrics.adapt_redirects;
}

}  // namespace

std::string BaseValueOf(const std::string& value_key) {
  std::string base;
  int shard = 0;
  if (la::ParseShardSuffix(value_key, &base, &shard)) return base;
  return value_key;
}

std::string SubValueKey(const std::string& base, int shard, int split) {
  return la::ShardValueKey(base, shard, split);
}

ShardRange HomeShards(Placement placement, uint64_t seq, int split) {
  if (placement == Placement::kReplicated) return {0, std::max(1, split)};
  const int shard = la::ShardOfSeq(seq, split);
  return {shard, shard + 1};
}

int SplitFor(const ProtocolContext& ctx, const NodeState& state,
             const std::string& level1, const std::string& value,
             uint64_t* version) {
  *version = 0;
  if (!Enabled(ctx)) return 1;
  const la::Directive* d = state.adapt.directory.FindSplit(level1, value);
  if (d == nullptr || d->version == 0) return 1;
  *version = d->version;
  return d->level;
}

int ReplicasFor(const ProtocolContext& ctx, const NodeState& state,
                const std::string& level1) {
  const int base = std::max(1, ctx.options().attribute_replication);
  if (!Enabled(ctx)) return base;
  return state.adapt.directory.ReplicasOf(level1, base);
}

void HandleReplicate(ProtocolContext& ctx, chord::Node& node,
                     const chord::AppMessage& msg) {
  const auto& p =
      *static_cast<const AdaptReplicatePayload*>(msg.payload.get());
  if (!Enabled(ctx)) return;
  NodeState& state = ctx.StateOf(node);
  state.adapt.directory.ApplyReplicas(p.level1, p.replicas, p.version,
                                      EpochOf(ctx));
}

void HandleSplit(ProtocolContext& ctx, chord::Node& node,
                 const chord::AppMessage& msg) {
  const auto& p = *static_cast<const AdaptSplitPayload*>(msg.payload.get());
  if (!Enabled(ctx)) return;
  NodeState& state = ctx.StateOf(node);
  state.adapt.directory.ApplySplit(p.level1, p.value, p.split, p.version,
                                   EpochOf(ctx));
  ActOnSplit(ctx, node, state, p.level1, p.value);
}

void OnQueryIndexed(ProtocolContext& ctx, chord::Node& node,
                    const QueryIndexPayload& p) {
  if (!Enabled(ctx) || p.replica != 0) return;
  NodeState& state = ctx.StateOf(node);
  const int base = std::max(1, ctx.options().attribute_replication);
  const int replicas = state.adapt.directory.ReplicasOf(p.level1, base);
  // Submitters always fan a query to the static [0, base) floor; replica
  // 0 tops up the adaptive extras on every arrival (idempotent inserts).
  for (int r = base; r < replicas; ++r) {
    auto copy = std::make_shared<QueryIndexPayload>();
    copy->query = p.query;
    copy->index_side = p.index_side;
    copy->level1 = p.level1;
    copy->replica = r;
    chord::AppMessage msg;
    msg.target = AttrIndexIdOfKey(p.level1, r);
    msg.cls = sim::MsgClass::kQueryIndex;
    msg.payload = std::move(copy);
    reliability::SendReliable(ctx, node, std::move(msg));
  }
}

bool OnAttrTuple(ProtocolContext& ctx, chord::Node& node,
                 const TupleIndexPayload& p) {
  if (!Enabled(ctx)) return false;
  NodeState& state = ctx.StateOf(node);
  const int base = std::max(1, ctx.options().attribute_replication);
  const int replicas = state.adapt.directory.ReplicasOf(p.level1, base);
  if (p.replica >= replicas) {
    // A stale-high publisher targeted a de-replicated copy, which no
    // longer receives new queries. Re-dispatch to a live replica; the
    // target index is strictly smaller than the arrived one, so
    // redirect chains terminate at replica 0 however stale each hop is.
    const int target =
        static_cast<int>(p.tuple->seq() % static_cast<uint64_t>(replicas));
    auto copy = std::make_shared<TupleIndexPayload>(/*value_level=*/false);
    copy->tuple = p.tuple;
    copy->attr_index = p.attr_index;
    copy->level1 = p.level1;
    copy->replica = target;
    chord::AppMessage msg;
    msg.target = AttrIndexIdOfKey(p.level1, target);
    msg.cls = sim::MsgClass::kTupleIndex;
    msg.payload = std::move(copy);
    reliability::SendReliable(ctx, node, std::move(msg));
    ++state.metrics.adapt_redirects;
    return true;
  }
  if (p.replica == 0) DecideAttr(ctx, node, state, p.level1);
  return false;
}

bool OnValueTuple(ProtocolContext& ctx, chord::Node& node,
                  const TupleIndexPayload& p) {
  if (!Enabled(ctx)) return false;
  NodeState& state = ctx.StateOf(node);
  std::string base;
  int shard = 0;
  ParseArrivedKey(p.value_key, &base, &shard);
  int split = state.adapt.directory.SplitOf(p.level1, base);
  if (KeyLive(shard, split) && shard <= 0) {
    // Decider key (the plain base when unsplit, shard 0 when split):
    // record load and maybe re-plan, which can change the shard set.
    DecideValue(ctx, node, state, p.level1, base, 1);
    split = state.adapt.directory.SplitOf(p.level1, base);
  }
  if (KeyLive(shard, split)) return false;
  // Dead sub-key: forward to the owner our directory deems live,
  // preceded by a directive refresh so a stale owner applies the newer
  // view instead of bouncing the tuple back.
  const ShardRange shards =
      HomeShards(VlttPolicy::PlacementOf(base), p.tuple->seq(), split);
  const std::string target_key = la::ShardValueKey(base, shards.first, split);
  const chord::NodeId target = ValueIndexIdOfKey(p.level1, target_key);
  const la::Directive* d = state.adapt.directory.FindSplit(p.level1, base);
  if (d != nullptr && d->version > 0) {
    SendSplitDirective(ctx, node, target, p.level1, base, split, d->version);
  }
  auto fwd = std::make_shared<TupleIndexPayload>(/*value_level=*/true);
  fwd->tuple = p.tuple;
  fwd->attr_index = p.attr_index;
  fwd->level1 = p.level1;
  fwd->value_key = target_key;
  chord::AppMessage msg;
  msg.target = target;
  msg.cls = sim::MsgClass::kTupleIndex;
  msg.payload = std::move(fwd);
  reliability::SendReliable(ctx, node, std::move(msg));
  ++state.metrics.adapt_redirects;
  return true;
}

bool OnJoinArrival(ProtocolContext& ctx, chord::Node& node,
                   const JoinPayload& p) {
  if (!Enabled(ctx) || p.known_split == 0) return false;  // Replay batch.
  NodeState& state = ctx.StateOf(node);
  std::string base;
  int shard = 0;
  ParseArrivedKey(p.value_key, &base, &shard);
  // The batch doubles as a directive carrier: apply the sender's view,
  // then perform this node's transition if the directive is news.
  if (p.split_version > 0) {
    state.adapt.directory.ApplySplit(p.level1, base, p.known_split,
                                     p.split_version, EpochOf(ctx));
    ActOnSplit(ctx, node, state, p.level1, base);
  }
  int split = state.adapt.directory.SplitOf(p.level1, base);
  if (KeyLive(shard, split) && shard <= 0) {
    DecideValue(ctx, node, state, p.level1, base, p.entries.size());
    split = state.adapt.directory.SplitOf(p.level1, base);
  }
  if (!KeyLive(shard, split)) {
    RedispatchJoin(ctx, node, state, p, base, split);
    return true;
  }
  if (shard == 0 && p.known_split >= 1 && p.known_split < split) {
    // Shard 0 tops up the shards a stale sender's narrower fan missed.
    for (int j = std::max(1, p.known_split); j < split; ++j) {
      ShipJoinEntries(ctx, node, p.level1, la::ShardValueKey(base, j, split),
                      p.entries);
    }
  }
  return false;
}

bool OnDaivJoinArrival(ProtocolContext& ctx, chord::Node& node,
                       const DaivJoinPayload& p) {
  if (!Enabled(ctx) || p.known_split == 0) return false;
  // Key-prefixed DAI-V evaluators are already partitioned per query;
  // the split scheme stays out of their way.
  if (ctx.options().daiv_prefix_query_key) return false;
  NodeState& state = ctx.StateOf(node);
  std::string base;
  int shard = 0;
  ParseArrivedKey(p.value_key, &base, &shard);
  if (p.split_version > 0) {
    state.adapt.directory.ApplySplit("", base, p.known_split, p.split_version,
                                     EpochOf(ctx));
    ActOnSplit(ctx, node, state, "", base);
  }
  int split = state.adapt.directory.SplitOf("", base);
  if (KeyLive(shard, split) && shard <= 0) {
    DecideValue(ctx, node, state, "", base, p.entries.size());
    split = state.adapt.directory.SplitOf("", base);
  }
  if (!KeyLive(shard, split)) {
    RedispatchDaiv(ctx, node, state, p, base, split);
    return true;
  }
  if (shard == 0 && p.known_split >= 1 && p.known_split < split) {
    // Top up the replicated (side-1) entries the sender's fan missed;
    // side-0 entries were hashed into [0, known_split), all live.
    std::vector<DaivEntry> side1;
    for (const DaivEntry& entry : p.entries) {
      if (DaivPlacement(entry.trigger_side) == Placement::kReplicated) {
        side1.push_back(entry);
      }
    }
    for (int j = std::max(1, p.known_split); j < split; ++j) {
      ShipDaivEntries(ctx, node, la::ShardValueKey(base, j, split), side1);
    }
  }
  return false;
}

}  // namespace contjoin::core::adapt
