#include "core/otj_protocol.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "chord/node.h"
#include "core/state.h"

namespace contjoin::core::otj {

void HandleScan(ProtocolContext& ctx, chord::Node& node,
                const chord::AppMessage& msg) {
  const auto& p = *static_cast<const OtjScanPayload*>(msg.payload.get());
  NodeState& state = ctx.StateOf(node);
  ++state.metrics.filter_ops_value;
  const query::ContinuousQuery& q = *p.query;

  // Rehash this node's slice of the two base relations by join value.
  // Every tuple lives in the VLTT once per attribute; the copy stored
  // under attribute 0 is the canonical one for scans.
  struct Pending {
    chord::NodeId vindex;
    std::shared_ptr<OtjRehashPayload> payload;
  };
  std::map<std::string, Pending> groups;
  state.evaluator.vltt.ForEach([&](const StoredTuple& stored) {
    if (stored.index_attr != 0) return;
    const rel::Tuple& tuple = *stored.tuple;
    int side = q.SideOfRelation(tuple.relation());
    if (side < 0) return;
    ++state.metrics.filter_ops_value;
    if (!q.side(side).SatisfiesPredicates(tuple)) return;
    auto value = q.side(side).join_expr->EvalSingle(side, tuple);
    if (!value.ok() || value.value().is_null()) return;
    std::string value_key = value.value().ToKeyString();

    OtjTuple entry;
    entry.side = side;
    entry.row.assign(q.select().size(), std::nullopt);
    for (size_t i = 0; i < q.select().size(); ++i) {
      if (q.select()[i].ref.side == side) {
        entry.row[i] = tuple.at(q.select()[i].ref.attr_index);
      }
    }
    entry.pub_time = tuple.pub_time();
    entry.seq = tuple.seq();

    Pending& pending = groups[value_key];
    if (pending.payload == nullptr) {
      pending.vindex = HashKey("otj#" + std::to_string(p.otj_id) + "#" +
                               value_key);
      pending.payload = std::make_shared<OtjRehashPayload>();
      pending.payload->query = p.query;
      pending.payload->otj_id = p.otj_id;
      pending.payload->issuer = p.issuer;
      pending.payload->value_key = value_key;
    }
    pending.payload->entries.push_back(std::move(entry));
  });

  std::vector<chord::AppMessage> batch;
  for (auto& [value_key, pending] : groups) {
    chord::AppMessage out;
    out.target = pending.vindex;
    out.cls = sim::MsgClass::kOneTime;
    out.payload = std::move(pending.payload);
    batch.push_back(std::move(out));
  }
  if (batch.size() == 1) {
    ctx.Send(node, std::move(batch[0]));
  } else if (!batch.empty()) {
    ctx.Multisend(node, std::move(batch), sim::MsgClass::kOneTime);
  }
}

void HandleRehash(ProtocolContext& ctx, chord::Node& node,
                  const chord::AppMessage& msg) {
  const auto& p = *static_cast<const OtjRehashPayload*>(msg.payload.get());
  NodeState& state = ctx.StateOf(node);
  ++state.metrics.filter_ops_value;
  const query::ContinuousQuery& q = *p.query;
  auto& sides = state.otj.buffers[p.otj_id][p.value_key];
  auto result = std::make_shared<OtjResultPayload>();
  result->otj_id = p.otj_id;
  std::vector<Notification>& rows = result->rows;
  for (const OtjTuple& entry : p.entries) {
    // Symmetric hash join: probe the opposite buffer, then insert.
    for (const OtjTuple& other :
         sides[static_cast<size_t>(1 - entry.side)]) {
      ++state.metrics.filter_ops_value;
      Notification n;
      n.query_key = q.key();
      n.row.reserve(q.select().size());
      bool complete = true;
      for (size_t i = 0; i < q.select().size(); ++i) {
        const auto& mine = entry.row[i];
        const auto& theirs = other.row[i];
        if (mine.has_value()) {
          n.row.push_back(*mine);
        } else if (theirs.has_value()) {
          n.row.push_back(*theirs);
        } else {
          complete = false;
          break;
        }
      }
      if (!complete) continue;
      n.earlier_pub = std::min(entry.pub_time, other.pub_time);
      n.later_pub = std::max(entry.pub_time, other.pub_time);
      n.created_at = ctx.now();
      rows.push_back(std::move(n));
    }
    sides[static_cast<size_t>(entry.side)].push_back(entry);
  }
  if (rows.empty() || p.issuer == chord::NodeId()) return;
  if (p.issuer == node.id()) {
    ctx.AppendOtjResults(p.otj_id, std::move(rows));
    return;
  }
  // Stream the rows straight back to the issuer (PIER-style): one hop.
  chord::AppMessage out;
  out.target = p.issuer;
  out.cls = sim::MsgClass::kOneTime;
  out.payload = std::move(result);
  ctx.TransmitMessage(node, p.issuer, std::move(out));
}

void HandleResult(ProtocolContext& ctx, chord::Node& /*issuer*/,
                  const chord::AppMessage& msg) {
  const auto& p = *static_cast<const OtjResultPayload*>(msg.payload.get());
  ctx.AppendOtjResults(p.otj_id, p.rows);
}

}  // namespace contjoin::core::otj
