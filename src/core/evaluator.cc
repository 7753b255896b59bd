#include "core/evaluator.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "chord/node.h"
#include "common/logging.h"
#include "core/adapt_protocol.h"
#include "core/algorithm.h"
#include "core/mw_protocol.h"
#include "core/state.h"
#include "core/subscriber.h"

namespace contjoin::core::evaluator {

void RemoveQuery(State& state, const std::string& query_key) {
  state.vlqt.RemoveQuery(query_key);
  state.daiv.RemoveQuery(query_key);
}

size_t ExpireBefore(State& state, rel::Timestamp cutoff) {
  return state.vlqt.ExpireBefore(cutoff) + state.vltt.ExpireBefore(cutoff) +
         state.daiv.ExpireBefore(cutoff);
}

namespace {

/// Fills the rewriter's JFRT when it asked for an ack (one control hop).
template <typename PayloadT>
void MaybeAckJfrt(ProtocolContext& ctx, chord::Node& node, const PayloadT& p) {
  if (!p.want_ack || !ctx.options().use_jfrt ||
      p.rewriter == chord::NodeId() || p.rewriter == node.id()) {
    return;
  }
  chord::Node* rw = ctx.NodeById(p.rewriter);
  if (rw == nullptr || !rw->alive()) return;
  auto ack = std::make_shared<JfrtAckPayload>();
  ack->vindex = p.vindex;
  ack->evaluator = node.id();
  chord::AppMessage out;
  out.target = p.rewriter;
  out.cls = sim::MsgClass::kControl;
  out.payload = std::move(ack);
  ctx.TransmitMessage(node, p.rewriter, std::move(out));
}

/// Re-routes a copy of `msg` whose payload asks the true evaluator for a
/// JFRT ack.
template <typename PayloadT>
void RerouteWithAck(ProtocolContext& ctx, chord::Node& node,
                    const chord::AppMessage& msg) {
  auto copy = std::make_shared<PayloadT>(
      *static_cast<const PayloadT*>(msg.payload.get()));
  copy->want_ack = true;
  chord::AppMessage fwd = msg;
  fwd.payload = std::move(copy);
  ctx.Send(node, std::move(fwd));
}

}  // namespace

// contjoin-check: hot
bool RerouteIfStale(ProtocolContext& ctx, chord::Node& node,
                    const chord::AppMessage& msg) {
  const CqMsgType type = static_cast<const CqPayload&>(*msg.payload).type;
  if (type != CqMsgType::kJoin && type != CqMsgType::kDaivJoin) return false;
  if (node.IsResponsibleFor(msg.target)) return false;
  if (type == CqMsgType::kJoin) {
    RerouteWithAck<JoinPayload>(ctx, node, msg);
  } else {
    RerouteWithAck<DaivJoinPayload>(ctx, node, msg);
  }
  return true;
}

void HandleJoin(ProtocolContext& ctx, chord::Node& node,
                const chord::AppMessage& msg) {
  const auto& p = *static_cast<const JoinPayload*>(msg.payload.get());
  if (adapt::OnJoinArrival(ctx, node, p)) return;
  NodeState& state = ctx.StateOf(node);
  ++state.metrics.joins_received;
  ++state.metrics.filter_ops_value;

  MaybeAckJfrt(ctx, node, p);

  const AlgorithmStrategy& strategy = ctx.strategy();
  CJ_CHECK(!strategy.RewritesToDaiv()) << "T1 join message under DAI-V";
  // Adaptive mode runs every T1 evaluator symmetrically (store and match
  // both ways): re-placement replays can deliver a family's joins and
  // tuples in any relative order, so each arrival must catch up on what
  // the other side stored before it. Buckets are keyed by the base
  // value — routing uses virtual sub-keys, matching does not.
  const bool adaptive = ctx.options().adapt.enabled;
  const std::string& value_key =
      adaptive ? adapt::BaseValueOf(p.value_key) : p.value_key;
  for (const RewrittenEntry& entry : p.entries) {
    const query::ContinuousQuery& q = *entry.query;
    const rel::Tuple& trigger = *entry.trigger;
    if (strategy.StoresRewrittenQueries() || adaptive) {
      bool is_new = state.evaluator.vlqt.Insert(p.level1, value_key, entry);
      // A refresh (duplicate rewritten key) only advances the trigger
      // time. When tuple arrivals match stored joins unconditionally,
      // every tuple stored between the old and new triggers was already
      // paired on its own arrival, so without a window no new content
      // is possible; with one, the fresher trigger may re-admit pairs,
      // so the match must be repeated.
      if (strategy.MatchesRewrittenOnTupleArrival() && !is_new &&
          ctx.options().window == 0) {
        continue;
      }
    }
    if (!(strategy.MatchesTuplesOnJoinArrival() || adaptive)) continue;
    const auto* bucket = state.evaluator.vltt.Find(p.level1, value_key);
    if (bucket == nullptr) continue;
    for (const StoredTuple& st : *bucket) {
      ++state.metrics.filter_ops_value;
      const rel::Tuple& t2 = *st.tuple;
      if (strategy.RequiresStrictlyOlderStored() &&
          !t2.Before(trigger.pub_time(), trigger.seq())) {
        // The strict "stored older than trigger" rule makes each pair the
        // responsibility of exactly one of the two rewriters (§4.4.2).
        continue;
      }
      if (adaptive && !strategy.MatchesTuplesOnJoinArrival()) {
        // Adapt-only matching (DAI-T): the base path pairs a join with
        // every older tuple when that tuple's vl-index arrives, so this
        // catch-up only owes pairs whose tuple was stored (by replay or
        // reordering) before the join got here — the strictly newer
        // ones. Admitting older ones too would merely duplicate.
        const bool same = t2.pub_time() == trigger.pub_time() &&
                          t2.seq() == trigger.seq();
        if (same || t2.Before(trigger.pub_time(), trigger.seq())) continue;
      }
      if (t2.pub_time() < q.insertion_time()) continue;
      rel::Timestamp earlier = std::min(t2.pub_time(), trigger.pub_time());
      rel::Timestamp later = std::max(t2.pub_time(), trigger.pub_time());
      if (!ctx.InWindow(earlier, later)) continue;
      if (!q.side(entry.remaining_side).SatisfiesPredicates(t2)) continue;
      subscriber::EmitNotification(ctx, node, q, 1 - entry.remaining_side,
                                   trigger, t2);
    }
  }
}

void HandleTupleVl(ProtocolContext& ctx, chord::Node& node,
                   const chord::AppMessage& msg) {
  const auto& p = *static_cast<const TupleIndexPayload*>(msg.payload.get());
  if (adapt::OnValueTuple(ctx, node, p)) return;
  NodeState& state = ctx.StateOf(node);
  ++state.metrics.tuples_received_value;
  ++state.metrics.filter_ops_value;
  const rel::TuplePtr& tuple = p.tuple;
  const AlgorithmStrategy& strategy = ctx.strategy();
  const bool adaptive = ctx.options().adapt.enabled;
  const std::string& value_key =
      adaptive ? adapt::BaseValueOf(p.value_key) : p.value_key;

  // SAI and DAI-T match stored rewritten queries on tuple arrival; in
  // adaptive mode every T1 evaluator does (symmetric catch-up — see
  // HandleJoin).
  if (strategy.MatchesRewrittenOnTupleArrival() || adaptive) {
    const auto* bucket = state.evaluator.vlqt.Find(p.level1, value_key);
    if (bucket != nullptr) {
      for (const auto& [id, sr] : *bucket) {
        ++state.metrics.filter_ops_value;
        const query::ContinuousQuery& q = *sr.query;
        const rel::Tuple& trigger = *sr.trigger;
        if (adaptive && !strategy.MatchesRewrittenOnTupleArrival() &&
            !tuple->Before(trigger.pub_time(), trigger.seq())) {
          // Adapt-only matching (DAI-Q): the base path pairs a tuple
          // with every strictly newer join when that join arrives, so
          // this catch-up only owes pairs whose join was stored before
          // the (older) tuple got here.
          continue;
        }
        if (tuple->pub_time() < q.insertion_time()) continue;
        rel::Timestamp earlier =
            std::min(tuple->pub_time(), trigger.pub_time());
        rel::Timestamp later = std::max(tuple->pub_time(), trigger.pub_time());
        if (!ctx.InWindow(earlier, later)) continue;
        if (!q.side(sr.remaining_side).SatisfiesPredicates(*tuple)) continue;
        subscriber::EmitNotification(ctx, node, q, 1 - sr.remaining_side,
                                     trigger, *tuple);
      }
    }
  }

  // Multi-way partials stored here are extended by matching tuples
  // (extension; recursive-SAI completeness mirrors §4.3.4).
  mw::MatchTupleVl(ctx, node, state, p);

  // SAI and DAI-Q store tuples at the value level (SAI for completeness,
  // §4.3.4; DAI-Q because its evaluators join on query arrival, §4.4.2).
  // Adaptive mode stores under every strategy: a join replayed here
  // later must find the tuples that preceded it.
  if (strategy.StoresTuples() || adaptive) {
    state.evaluator.vltt.Insert(p.level1, value_key,
                                StoredTuple{tuple, p.attr_index});
  }
}

void HandleDaivJoin(ProtocolContext& ctx, chord::Node& node,
                    const chord::AppMessage& msg) {
  const auto& p = *static_cast<const DaivJoinPayload*>(msg.payload.get());
  if (adapt::OnDaivJoinArrival(ctx, node, p)) return;
  NodeState& state = ctx.StateOf(node);
  ++state.metrics.joins_received;
  ++state.metrics.filter_ops_value;

  MaybeAckJfrt(ctx, node, p);

  const bool adaptive = ctx.options().adapt.enabled;
  // Re-placement replays (known_split == 0) can deliver entries after
  // newer opposite-side entries were stored at the new shard, so the
  // strictly-older rule must relax for them: admit any non-identical
  // pairing, since a missed pair cannot be repaired. A pair this forms a
  // second time is delivered twice: the subscriber keeps duplicates
  // (TakeNotifications returns both), and only set-based comparisons
  // hide them (ROADMAP open item 1).
  const bool replay = adaptive && p.known_split == 0;
  const std::string& value_key =
      adaptive ? adapt::BaseValueOf(p.value_key) : p.value_key;
  for (const DaivEntry& entry : p.entries) {
    const query::ContinuousQuery& q = *entry.query;
    const rel::Tuple& trigger = *entry.trigger;
    const int opposite = 1 - entry.trigger_side;
    const auto* bucket =
        state.evaluator.daiv.Find(value_key, DaivKey{q.key(), opposite});
    if (bucket != nullptr) {
      for (const DaivStored& stored : *bucket) {
        ++state.metrics.filter_ops_value;
        const rel::Tuple& other = *stored.tuple;
        if (replay) {
          if (other.pub_time() == trigger.pub_time() &&
              other.seq() == trigger.seq()) {
            continue;
          }
        } else if (!other.Before(trigger.pub_time(), trigger.seq())) {
          continue;  // Strictly-older rule keeps each pair exactly-once.
        }
        rel::Timestamp earlier = std::min(other.pub_time(), trigger.pub_time());
        rel::Timestamp later = std::max(other.pub_time(), trigger.pub_time());
        if (!ctx.InWindow(earlier, later)) continue;
        subscriber::EmitNotification(ctx, node, q, entry.trigger_side,
                                     trigger, other);
      }
    }
    state.evaluator.daiv.Insert(value_key,
                                DaivKey{q.key(), entry.trigger_side},
                                DaivStored{entry.trigger, entry.query});
  }
}

}  // namespace contjoin::core::evaluator
