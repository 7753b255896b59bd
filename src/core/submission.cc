// Submission-side facade methods of ContinuousQueryNetwork: parsing and
// indexing queries and tuples, one-time joins, unsubscription and the
// Â§4.7 migration command. Split from engine.cc so the facade core stays
// small; both files implement the same class.

#include "core/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "core/adapt_protocol.h"
#include "core/reliability.h"

namespace contjoin::core {

// --- Submission ------------------------------------------------------------------

void ContinuousQueryNetwork::IndexQueryFrom(chord::Node* origin,
                                            const query::QueryPtr& query) {
  // Which sides index the query at the attribute level?
  std::vector<int> sides;
  if (strategy_->DoubleIndexesQueries()) {
    sides = {0, 1};  // DAI algorithms double-index (§4.4.1).
  } else {
    sides.push_back(ChooseSaiIndexSide(*this, *origin, *query));
  }

  std::vector<chord::AppMessage> batch;
  for (int s : sides) {
    const query::QuerySide& side = query->side(s);
    const std::string level1 = AttrKey(side.relation, side.index_attr_name());
    // Adaptive replication widens the fan to every replica the origin's
    // directory knows about; replica 0 tops up any the directory lags on.
    const int replicas = adapt::ReplicasFor(*this, StateOf(*origin), level1);
    for (int replica = 0; replica < replicas; ++replica) {
      auto payload = std::make_shared<QueryIndexPayload>();
      payload->query = query;
      payload->index_side = s;
      payload->level1 = level1;
      payload->replica = replica;
      chord::AppMessage msg;
      msg.target =
          AttrIndexId(side.relation, side.index_attr_name(), replica);
      msg.cls = sim::MsgClass::kQueryIndex;
      msg.payload = std::move(payload);
      batch.push_back(std::move(msg));
    }
  }
  reliability::ArmAll(*this, *origin, batch);
  if (batch.size() == 1) {
    origin->Send(std::move(batch[0]));
  } else {
    origin->Multisend(std::move(batch), sim::MsgClass::kQueryIndex);
  }
}

void ContinuousQueryNetwork::PublishTupleFrom(
    chord::Node* origin, const std::shared_ptr<const rel::Tuple>& tuple) {
  const rel::RelationSchema* schema = catalog_.Find(tuple->relation());
  CJ_CHECK(schema != nullptr);
  // Paper §4.2 (adapted for DAI-V §4.5: tuples are indexed only at the
  // attribute level there): one multisend batch carrying all identifiers.
  std::vector<chord::AppMessage> batch;
  for (size_t i = 0; i < schema->arity(); ++i) {
    const std::string& attr = schema->attribute(i).name;
    const std::string level1 = AttrKey(tuple->relation(), attr);
    const int replicas =
        adapt::ReplicasFor(*this, StateOf(*origin), level1);
    int replica = replicas <= 1
                      ? 0
                      : static_cast<int>(rng_.NextBelow(
                            static_cast<uint64_t>(replicas)));
    auto al = std::make_shared<TupleIndexPayload>(/*value_level=*/false);
    al->tuple = tuple;
    al->attr_index = i;
    al->level1 = level1;
    al->replica = replica;
    chord::AppMessage al_msg;
    al_msg.target = AttrIndexId(tuple->relation(), attr, replica);
    al_msg.cls = sim::MsgClass::kTupleIndex;
    al_msg.payload = std::move(al);
    batch.push_back(std::move(al_msg));

    if (strategy_->IndexesTuplesAtValueLevel()) {
      auto vl = std::make_shared<TupleIndexPayload>(/*value_level=*/true);
      vl->tuple = tuple;
      vl->attr_index = i;
      vl->level1 = level1;
      const std::string base_value = tuple->at(i).ToKeyString();
      // Adaptive split: the publication hashes to one virtual sub-key by
      // sequence number; the directory at the target repairs stale
      // placements (the origin's copy may lag).
      uint64_t split_version = 0;
      const int split = adapt::SplitFor(*this, StateOf(*origin), level1,
                                        base_value, &split_version);
      const adapt::ShardRange shards = adapt::HomeShards(
          VlttPolicy::PlacementOf(base_value), tuple->seq(), split);
      vl->value_key = adapt::SubValueKey(base_value, shards.first, split);
      chord::AppMessage vl_msg;
      vl_msg.target = ValueIndexId(tuple->relation(), attr, vl->value_key);
      vl_msg.cls = sim::MsgClass::kTupleIndex;
      vl_msg.payload = std::move(vl);
      batch.push_back(std::move(vl_msg));
    }
  }
  reliability::ArmAll(*this, *origin, batch);
  origin->Multisend(std::move(batch), sim::MsgClass::kTupleIndex);
}

StatusOr<std::string> ContinuousQueryNetwork::SubmitQuery(
    size_t node_index, std::string_view sql) {
  if (node_index >= nodes_.size()) {
    return Status::InvalidArgument("node index out of range");
  }
  chord::Node* origin = nodes_[node_index];
  if (!origin->alive()) {
    return Status::FailedPrecondition("submitting node is offline");
  }
  CJ_ASSIGN_OR_RETURN(query::ContinuousQuery parsed,
                      query::ParseQuery(sql, catalog_));
  if (parsed.type() == query::QueryType::kT2 &&
      !strategy_->SupportsT2Queries()) {
    return Status::Unsupported(
        "queries of type T2 require DAI-V (paper §4.5); " +
        std::string(strategy_->name()) + " handles only type T1");
  }

  Tick();
  origin = EntryNode(node_index);
  NodeState& origin_state = StateOf(*origin);
  std::string key =
      origin->key() + "#" +
      std::to_string(origin_state.subscriber.next_query_serial++);
  parsed.set_key(key);
  parsed.set_subscriber_key(origin->key());
  parsed.set_subscriber_ip(origin->ip());
  parsed.set_insertion_time(simulator_.Now());

  auto query = std::make_shared<const query::ContinuousQuery>(
      std::move(parsed));

  IndexQueryFrom(origin, query);
  simulator_.Run();
  submitted_[key] = next_submission_serial_;
  submission_log_.emplace(next_submission_serial_++, query);
  return key;
}

Status ContinuousQueryNetwork::InsertTuple(size_t node_index,
                                           const std::string& relation,
                                           std::vector<rel::Value> values) {
  if (node_index >= nodes_.size()) {
    return Status::InvalidArgument("node index out of range");
  }
  chord::Node* origin = nodes_[node_index];
  if (!origin->alive()) {
    return Status::FailedPrecondition("inserting node is offline");
  }
  const rel::RelationSchema* schema = catalog_.Find(relation);
  if (schema == nullptr) {
    return Status::NotFound("unknown relation '" + relation + "'");
  }

  Tick();
  origin = EntryNode(node_index);
  auto tuple = std::make_shared<const rel::Tuple>(
      relation, std::move(values), simulator_.Now(), next_tuple_seq_++);
  CJ_RETURN_IF_ERROR(tuple->CheckAgainst(*schema));

  PublishTupleFrom(origin, tuple);
  simulator_.Run();
  publish_log_.emplace_back(origin, tuple);
  return Status::OK();
}

Status ContinuousQueryNetwork::InsertTupleWave(
    const std::vector<std::pair<size_t, std::string>>& origins_relations,
    std::vector<std::vector<rel::Value>> rows) {
  if (origins_relations.size() != rows.size()) {
    return Status::InvalidArgument("wave origins and rows differ in length");
  }
  if (origins_relations.empty()) return Status::OK();
  Tick();
  // All tuples of the wave share one arrival timestamp; consecutive seqs
  // keep their relative order deterministic. The serial-side publication
  // (index-message construction, reliability arming) runs per tuple, but
  // delivery events all land in the same epoch, which is what gives the
  // parallel core a batch wide enough to spread across workers.
  std::vector<
      std::pair<chord::Node*, std::shared_ptr<const rel::Tuple>>>
      published;
  published.reserve(rows.size());
  for (size_t i = 0; i < origins_relations.size(); ++i) {
    const auto& [node_index, relation] = origins_relations[i];
    if (node_index >= nodes_.size()) {
      return Status::InvalidArgument("node index out of range");
    }
    const rel::RelationSchema* schema = catalog_.Find(relation);
    if (schema == nullptr) {
      return Status::NotFound("unknown relation '" + relation + "'");
    }
    chord::Node* origin = EntryNode(node_index);
    auto tuple = std::make_shared<const rel::Tuple>(
        relation, std::move(rows[i]), simulator_.Now(), next_tuple_seq_++);
    CJ_RETURN_IF_ERROR(tuple->CheckAgainst(*schema));
    PublishTupleFrom(origin, tuple);
    published.emplace_back(origin, tuple);
  }
  simulator_.Run();
  for (auto& entry : published) {
    publish_log_.emplace_back(entry.first, std::move(entry.second));
  }
  return Status::OK();
}

// --- Open-loop serving (extension) ----------------------------------------------------

Status ContinuousQueryNetwork::SchedulePublish(sim::SimTime when,
                                               size_t node_index,
                                               const std::string& relation,
                                               std::vector<rel::Value> values) {
  if (node_index >= nodes_.size()) {
    return Status::InvalidArgument("node index out of range");
  }
  const rel::RelationSchema* schema = catalog_.Find(relation);
  if (schema == nullptr) {
    return Status::NotFound("unknown relation '" + relation + "'");
  }
  // Birth time and sequence are assigned now, at arrival-process time, so
  // the tuple's virtual-time birth is the scheduled arrival instant even
  // if the system is saturated when the event fires. An arrival already
  // overdue (churn repair at a segment boundary drains the event queue
  // and can advance the clock past the next segment's instants) fires as
  // soon as possible but keeps its intended birth stamp — open-loop
  // arrivals do not wait for the system.
  auto tuple = std::make_shared<const rel::Tuple>(
      relation, std::move(values), when, next_tuple_seq_++);
  CJ_RETURN_IF_ERROR(tuple->CheckAgainst(*schema));
  const sim::SimTime fire = std::max(when, simulator_.Now());
  // kNoShard: publication draws from the engine rng (SAI side choice,
  // replica choice), so the publishing epoch must stay serial for the
  // worker-count determinism contract. The cascade it spawns still
  // parallelizes in subsequent epochs.
  simulator_.ScheduleAt(fire, [this, node_index, tuple]() {
    chord::Node* origin = EntryNode(node_index);
    if (origin == nullptr) return;
    PublishTupleFrom(origin, tuple);
    publish_log_.emplace_back(origin, tuple);
  });
  return Status::OK();
}

uint64_t ContinuousQueryNetwork::RunOpenLoopUntil(sim::SimTime until) {
  const uint64_t before = simulator_.total_events_run();
  simulator_.RunUntil(until);
  // Churn applies at segment boundaries (quiescent points), mirroring the
  // closed-loop operation-boundary semantics. The repair sweep drains the
  // whole queue, so the serving driver only schedules arrivals up to the
  // next boundary — anything still pending here belongs to this segment's
  // cascade and may legitimately complete during repair.
  ProcessChurnDue();
  return simulator_.total_events_run() - before;
}

// --- Multi-way joins (extension) ------------------------------------------------------

StatusOr<std::string> ContinuousQueryNetwork::SubmitMultiwayQuery(
    size_t node_index, std::string_view sql) {
  if (node_index >= nodes_.size()) {
    return Status::InvalidArgument("node index out of range");
  }
  if (!strategy_->SupportsRecursiveMultiway()) {
    return Status::Unsupported(
        "multi-way queries run on the recursive-SAI extension; set "
        "Algorithm::kSai");
  }
  if (options_.attribute_replication != 1) {
    return Status::Unsupported(
        "multi-way queries do not support attribute-level replication");
  }
  if (options_.adapt.enabled) {
    return Status::Unsupported(
        "multi-way queries do not support the adaptive load manager");
  }
  chord::Node* origin = nodes_[node_index];
  if (!origin->alive()) {
    return Status::FailedPrecondition("submitting node is offline");
  }
  CJ_ASSIGN_OR_RETURN(query::MwQuery parsed,
                      query::ParseMwQuery(sql, catalog_));

  Tick();
  origin = EntryNode(node_index);
  NodeState& origin_state = StateOf(*origin);
  std::string key =
      origin->key() + "#" +
      std::to_string(origin_state.subscriber.next_query_serial++);
  parsed.set_key(key);
  parsed.set_subscriber_key(origin->key());
  parsed.set_subscriber_ip(origin->ip());
  parsed.set_insertion_time(simulator_.Now());
  auto query = std::make_shared<const query::MwQuery>(std::move(parsed));

  // Index at the attribute level under the root relation (index 0) and the
  // attribute of its lowest incident join condition.
  int root_cond = query->NextCondition(1u << 0);
  CJ_CHECK(root_cond >= 0) << "spanning tree must touch the root";
  const query::MwCondition& cond =
      query->conditions()[static_cast<size_t>(root_cond)];
  const query::MwRelation& root = query->relations()[0];
  const std::string& attr =
      root.schema->attribute(cond.AttrOn(0)).name;

  auto payload = std::make_shared<MwQueryIndexPayload>();
  payload->query = query;
  payload->level1 = AttrKey(root.relation, attr);
  chord::AppMessage msg;
  msg.target = AttrIndexId(root.relation, attr, /*replica=*/0);
  msg.cls = sim::MsgClass::kQueryIndex;
  msg.payload = std::move(payload);
  origin->Send(std::move(msg));
  simulator_.Run();
  return key;
}

// --- One-time joins (PIER baseline) ---------------------------------------------------

StatusOr<std::vector<Notification>> ContinuousQueryNetwork::OneTimeJoin(
    size_t node_index, std::string_view sql) {
  if (node_index >= nodes_.size()) {
    return Status::InvalidArgument("node index out of range");
  }
  if (!strategy_->StoresTuples()) {
    return Status::Unsupported(
        "one-time joins scan value-level tuple storage, which only SAI and "
        "DAI-Q maintain");
  }
  chord::Node* origin = nodes_[node_index];
  if (!origin->alive()) {
    return Status::FailedPrecondition("issuing node is offline");
  }
  CJ_ASSIGN_OR_RETURN(query::ContinuousQuery parsed,
                      query::ParseQuery(sql, catalog_));

  Tick();
  origin = EntryNode(node_index);
  uint64_t otj_id = next_otj_id_++;
  parsed.set_key(origin->key() + "#otj" + std::to_string(otj_id));
  parsed.set_subscriber_key(origin->key());
  parsed.set_subscriber_ip(origin->ip());
  parsed.set_insertion_time(0);  // Snapshot: every stored tuple qualifies.
  auto query = std::make_shared<const query::ContinuousQuery>(
      std::move(parsed));

  auto payload = std::make_shared<OtjScanPayload>();
  payload->query = query;
  payload->otj_id = otj_id;
  payload->issuer = origin->id();
  origin->Broadcast(std::move(payload), sim::MsgClass::kOneTime);
  simulator_.Run();

  std::vector<Notification> results = std::move(otj_results_[otj_id]);
  otj_results_.erase(otj_id);
  // Drop the temporary collector buffers of this execution.
  for (auto& state : states_) state->otj.buffers.erase(otj_id);
  return results;
}

// --- Unsubscription (extension) -----------------------------------------------------

Status ContinuousQueryNetwork::Unsubscribe(size_t node_index,
                                           const std::string& query_key) {
  if (node_index >= nodes_.size()) {
    return Status::InvalidArgument("node index out of range");
  }
  auto it = submitted_.find(query_key);
  if (it == submitted_.end()) {
    return Status::NotFound("unknown query key '" + query_key + "'");
  }
  auto logged = submission_log_.find(it->second);
  CJ_CHECK(logged != submission_log_.end());
  const query::ContinuousQuery& q = *logged->second;
  chord::Node* origin = nodes_[node_index];
  if (!origin->alive()) {
    return Status::FailedPrecondition("node is offline");
  }

  Tick();
  origin = EntryNode(node_index);
  // Remove from every possible rewriter (both sides and all replicas cover
  // the SAI single-side case too — the extra recipients are no-ops). Under
  // the adaptive manager, cover the whole replica range it may ever have
  // escalated to, not just the replicas currently live.
  const int unsub_replicas =
      options_.adapt.enabled
          ? std::max(options_.attribute_replication,
                     options_.adapt.max_replicas)
          : options_.attribute_replication;
  std::vector<chord::AppMessage> batch;
  for (int s = 0; s < 2; ++s) {
    for (int replica = 0; replica < unsub_replicas; ++replica) {
      auto payload = std::make_shared<UnsubscribePayload>();
      payload->query_key = query_key;
      payload->at_evaluator = false;
      payload->level1 =
          AttrKey(q.side(s).relation, q.side(s).index_attr_name());
      payload->replica = replica;
      chord::AppMessage msg;
      msg.target = AttrIndexId(q.side(s).relation,
                               q.side(s).index_attr_name(), replica);
      msg.cls = sim::MsgClass::kControl;
      msg.payload = std::move(payload);
      batch.push_back(std::move(msg));
    }
  }
  reliability::ArmAll(*this, *origin, batch);
  origin->Multisend(std::move(batch), sim::MsgClass::kControl);
  simulator_.Run();
  submitted_.erase(it);
  // Drop the cancelled query from the durable replay log too, or a later
  // RefreshIndexes would resurrect it.
  submission_log_.erase(logged);
  return Status::OK();
}

// --- §4.7 "moving an identifier" ------------------------------------------------------

Status ContinuousQueryNetwork::MigrateAttribute(size_t node_index,
                                                const std::string& relation,
                                                const std::string& attr,
                                                int replica) {
  if (node_index >= nodes_.size()) {
    return Status::InvalidArgument("node index out of range");
  }
  const rel::RelationSchema* schema = catalog_.Find(relation);
  if (schema == nullptr) {
    return Status::NotFound("unknown relation '" + relation + "'");
  }
  if (!schema->AttributeIndex(attr).has_value()) {
    return Status::NotFound("relation '" + relation +
                            "' has no attribute '" + attr + "'");
  }
  if (replica < 0 || replica >= options_.attribute_replication) {
    return Status::InvalidArgument("replica out of range");
  }
  chord::Node* origin = nodes_[node_index];
  if (!origin->alive()) {
    return Status::FailedPrecondition("node is offline");
  }
  Tick();
  origin = EntryNode(node_index);
  auto payload = std::make_shared<MigrateCmdPayload>();
  payload->level1 = AttrKey(relation, attr);
  payload->replica = replica;
  chord::AppMessage msg;
  msg.target = AttrIndexId(relation, attr, replica);
  msg.cls = sim::MsgClass::kControl;
  msg.payload = std::move(payload);
  origin->Send(std::move(msg));
  simulator_.Run();
  return Status::OK();
}

}  // namespace contjoin::core
