#include "core/subscriber.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "chord/node.h"
#include "common/logging.h"
#include "core/reliability.h"
#include "core/state.h"

namespace contjoin::core::subscriber {

namespace {

/// One delivery occupies an in-flight slot for max(1, hop_latency) virtual
/// ticks, so a node services ~high_water deliveries per hop latency — the
/// capacity behind "max sustainable rate". The release timer runs on the
/// evaluator's own shard and resolves the node by id so a crash between
/// occupy and release is harmless.
void OccupySlots(ProtocolContext& ctx, chord::Node& evaluator,
                 uint64_t units) {
  State& ev_state = ctx.StateOf(evaluator).subscriber;
  ev_state.inflight += units;
  const uint64_t hold = std::max<uint64_t>(1, ctx.options().chord.hop_latency);
  const chord::NodeId ev = evaluator.id();
  ctx.ScheduleAfter(evaluator, hold, [&ctx, ev, units]() {
    chord::Node* node = ctx.NodeById(ev);
    if (node == nullptr) return;
    State& st = ctx.StateOf(*node).subscriber;
    st.inflight = st.inflight >= units ? st.inflight - units : 0;
  });
}

/// Admission control at the evaluator: past the high-water mark the
/// delivery is shed (dropped, counted) or deferred (the whole
/// DeliverNotification decision re-runs after defer_delay — the subscriber
/// may have moved meanwhile). Returns true when the delivery may proceed
/// now, in which case a slot has been occupied.
bool AdmitDelivery(ProtocolContext& ctx, chord::Node& evaluator,
                   const std::string& subscriber_key,
                   const chord::NodeId& subscriber_id, uint64_t subscriber_ip,
                   Notification& n) {
  const ServingOptions& serving = ctx.options().serving;
  if (!serving.backpressure) return true;
  State& ev_state = ctx.StateOf(evaluator).subscriber;
  if (ev_state.inflight < serving.high_water) {
    OccupySlots(ctx, evaluator, 1);
    return true;
  }
  ctx.RecordBackpressure(serving.shed);
  if (serving.shed) return false;
  const chord::NodeId ev = evaluator.id();
  ctx.ScheduleAfter(
      evaluator, std::max<uint64_t>(1, serving.defer_delay),
      [&ctx, ev, subscriber_key, subscriber_id, subscriber_ip,
       n = std::move(n)]() mutable {
        chord::Node* node = ctx.NodeById(ev);
        if (node == nullptr || !node->alive()) return;
        DeliverNotification(ctx, *node, subscriber_key, subscriber_id,
                            subscriber_ip, std::move(n));
      });
  return false;
}

/// Resolves the delivery target for `subscriber_key` exactly like the
/// unbatched path: learned address first, registry second.
chord::Node* ResolveTarget(ProtocolContext& ctx, State& ev_state,
                           const std::string& subscriber_key,
                           uint64_t* expect_ip) {
  auto learned = ev_state.subscriber_addr.find(subscriber_key);
  if (learned != ev_state.subscriber_addr.end()) {
    *expect_ip = learned->second.ip;
    return learned->second.node;
  }
  return ctx.NodeByKey(subscriber_key);
}

/// Sends one digest (all notifications buffered for `subscriber_key` this
/// epoch) with the same local / direct / routed branching as a single
/// notification.
void SendDigest(ProtocolContext& ctx, chord::Node& evaluator,
                const std::string& subscriber_key, const State::DigestAddr& to,
                std::vector<Notification> notifications) {
  State& ev_state = ctx.StateOf(evaluator).subscriber;
  uint64_t expect_ip = to.ip;
  chord::Node* target =
      ResolveTarget(ctx, ev_state, subscriber_key, &expect_ip);

  if (target == &evaluator && target->alive()) {
    for (Notification& n : notifications) {
      ctx.DepositNotification(evaluator, std::move(n));
    }
    return;
  }
  auto payload = std::make_shared<NotificationDigestPayload>();
  payload->notifications = std::move(notifications);
  payload->subscriber_key = subscriber_key;
  chord::AppMessage msg;
  msg.target = to.id;
  msg.cls = sim::MsgClass::kNotification;
  if (target != nullptr && target->alive() && target->ip() == expect_ip &&
      !ctx.options().reliability.enabled) {
    // Direct delivery: evaluator field stays zero, no IP update expected.
    msg.payload = std::move(payload);
    ctx.TransmitMessage(evaluator, target->id(), std::move(msg));
    return;
  }
  payload->evaluator = evaluator.id();
  msg.payload = std::move(payload);
  if (ctx.options().reliability.enabled) {
    reliability::Arm(ctx, evaluator, msg);
    if (target != nullptr && target->alive() && target->ip() == expect_ip) {
      ctx.TransmitMessage(evaluator, target->id(), std::move(msg));
      return;
    }
  }
  ctx.Send(evaluator, std::move(msg));
}

/// End-of-epoch flush: drains the evaluator's digest buffer, one digest
/// message per subscriber. Runs on the evaluator's shard at the same
/// virtual timestamp as the buffered emissions (delay-0 event), so
/// coalescing is exactly per (destination, epoch).
void FlushDigests(ProtocolContext& ctx, chord::Node& evaluator) {
  State& ev_state = ctx.StateOf(evaluator).subscriber;
  ev_state.digest_flush_scheduled = false;
  std::map<std::string,
           std::pair<State::DigestAddr, std::vector<Notification>>>
      buffer;
  buffer.swap(ev_state.digest_buffer);
  if (!evaluator.alive()) return;  // Crashed between buffer and flush.
  for (auto& [subscriber_key, entry] : buffer) {
    SendDigest(ctx, evaluator, subscriber_key, entry.first,
               std::move(entry.second));
  }
}

}  // namespace

void EmitNotification(ProtocolContext& ctx, chord::Node& evaluator,
                      const query::ContinuousQuery& q, int trigger_side,
                      const rel::Tuple& trigger, const rel::Tuple& matched) {
  Notification n;
  n.query_key = q.key();
  n.row.reserve(q.select().size());
  for (const query::SelectItem& item : q.select()) {
    const rel::Tuple& source =
        item.ref.side == trigger_side ? trigger : matched;
    n.row.push_back(source.at(item.ref.attr_index));
  }
  n.earlier_pub = std::min(trigger.pub_time(), matched.pub_time());
  n.later_pub = std::max(trigger.pub_time(), matched.pub_time());
  n.created_at = ctx.now();
  ++ctx.StateOf(evaluator).metrics.notifications_created;
  DeliverNotification(ctx, evaluator, q.subscriber_key(), q.subscriber_id(),
                      q.subscriber_ip(), std::move(n));
}

void EmitMwNotification(ProtocolContext& ctx, chord::Node& evaluator,
                        const query::MwQuery& q, const RowTemplate& row,
                        rel::Timestamp earlier, rel::Timestamp later) {
  Notification n;
  n.query_key = q.key();
  n.row.reserve(row.size());
  for (const auto& v : row) {
    CJ_CHECK(v.has_value()) << "incomplete multi-way row for " << q.key();
    n.row.push_back(*v);
  }
  n.earlier_pub = earlier;
  n.later_pub = later;
  n.created_at = ctx.now();
  ++ctx.StateOf(evaluator).metrics.notifications_created;
  DeliverNotification(ctx, evaluator, q.subscriber_key(), q.subscriber_id(),
                      q.subscriber_ip(), std::move(n));
}

void DeliverNotification(ProtocolContext& ctx, chord::Node& evaluator,
                         const std::string& subscriber_key,
                         const chord::NodeId& subscriber_id,
                         uint64_t subscriber_ip, Notification n) {
  if (!AdmitDelivery(ctx, evaluator, subscriber_key, subscriber_id,
                     subscriber_ip, n)) {
    return;  // Shed, or deferred to a later epoch.
  }
  State& ev_state = ctx.StateOf(evaluator).subscriber;
  if (ctx.options().serving.fanout_batching) {
    auto& entry = ev_state.digest_buffer[subscriber_key];
    entry.first = State::DigestAddr{subscriber_id, subscriber_ip};
    entry.second.push_back(std::move(n));
    if (!ev_state.digest_flush_scheduled) {
      ev_state.digest_flush_scheduled = true;
      const chord::NodeId ev = evaluator.id();
      // Delay-0 event on the evaluator's shard: fires within the current
      // virtual timestamp, after the batch that buffered the emissions.
      ctx.ScheduleAfter(evaluator, 0, [&ctx, ev]() {
        chord::Node* node = ctx.NodeById(ev);
        if (node == nullptr) return;
        FlushDigests(ctx, *node);
      });
    }
    return;
  }
  uint64_t expect_ip = subscriber_ip;
  chord::Node* target =
      ResolveTarget(ctx, ev_state, subscriber_key, &expect_ip);

  if (target == &evaluator && target->alive()) {
    ctx.DepositNotification(evaluator, std::move(n));  // Local subscriber.
    return;
  }
  if (target != nullptr && target->alive() && target->ip() == expect_ip &&
      !ctx.options().reliability.enabled) {
    // Direct delivery by IP: one overlay hop (§4.6). The evaluator field
    // stays zero — the address is already known, so the subscriber must
    // not answer with an IP update. With reliability on, this path is
    // skipped: the armed message below delivers through the dispatch hook
    // (still one hop) so the ack / dedup machinery sees it.
    auto direct = std::make_shared<NotificationPayload>();
    direct->notification = std::move(n);
    direct->subscriber_key = subscriber_key;
    chord::AppMessage out;
    out.target = subscriber_id;
    out.cls = sim::MsgClass::kNotification;
    out.payload = std::move(direct);
    ctx.TransmitMessage(evaluator, target->id(), std::move(out));
    return;
  }
  // Off-line or moved: route to Successor(Id(n)) where it is delivered or
  // stored (§4.6).
  auto payload = std::make_shared<NotificationPayload>();
  payload->notification = std::move(n);
  payload->subscriber_key = subscriber_key;
  payload->evaluator = evaluator.id();
  chord::AppMessage msg;
  msg.target = subscriber_id;
  msg.cls = sim::MsgClass::kNotification;
  msg.payload = std::move(payload);
  if (ctx.options().reliability.enabled) {
    reliability::Arm(ctx, evaluator, msg);
    if (target != nullptr && target->alive() && target->ip() == expect_ip) {
      // Known address: one direct hop into dispatch, retries fall back to
      // routing toward Successor(Id(n)).
      ctx.TransmitMessage(evaluator, target->id(), std::move(msg));
      return;
    }
  }
  ctx.Send(evaluator, std::move(msg));
}

void AbsorbStoredItems(ProtocolContext& ctx, chord::Node& node,
                       const chord::NodeId& key,
                       std::vector<chord::PayloadPtr> items) {
  for (chord::PayloadPtr& item : items) {
    const auto* base = static_cast<const CqPayload*>(item.get());
    if (base != nullptr && base->type == CqMsgType::kNotification) {
      const auto& p = *static_cast<const NotificationPayload*>(base);
      if (p.subscriber_key == node.key()) {
        ctx.DepositNotification(node, p.notification);
        continue;
      }
    }
    if (base != nullptr && base->type == CqMsgType::kNotificationDigest) {
      const auto& p = *static_cast<const NotificationDigestPayload*>(base);
      if (p.subscriber_key == node.key()) {
        for (const Notification& n : p.notifications) {
          ctx.DepositNotification(node, n);
        }
        continue;
      }
    }
    node.store().Put(key, std::move(item));
  }
}

void HandleNotification(ProtocolContext& ctx, chord::Node& node,
                        const chord::AppMessage& msg) {
  const auto& p =
      *static_cast<const NotificationPayload*>(msg.payload.get());
  if (node.key() == p.subscriber_key) {
    ctx.DepositNotification(node, p.notification);
    // Tell the evaluator our (possibly new) address (§4.6). A zero
    // evaluator id means the notification came directly to a known
    // address, so there is nothing to teach.
    if (p.evaluator != chord::NodeId() && p.evaluator != node.id()) {
      chord::Node* evaluator = ctx.NodeById(p.evaluator);
      if (evaluator != nullptr && evaluator->alive()) {
        auto up = std::make_shared<IpUpdatePayload>();
        up->subscriber_key = node.key();
        up->node = node.id();
        up->ip = node.ip();
        chord::AppMessage out;
        out.target = p.evaluator;
        out.cls = sim::MsgClass::kControl;
        out.payload = std::move(up);
        ctx.TransmitMessage(node, p.evaluator, std::move(out));
      }
    }
  } else {
    // Subscriber off-line: store under its identifier; the Chord key
    // transfer hands it back on reconnection (§4.6).
    node.store().Put(HashKey(p.subscriber_key), msg.payload);
  }
}

void HandleNotificationDigest(ProtocolContext& ctx, chord::Node& node,
                              const chord::AppMessage& msg) {
  const auto& p =
      *static_cast<const NotificationDigestPayload*>(msg.payload.get());
  if (node.key() == p.subscriber_key) {
    for (const Notification& n : p.notifications) {
      ctx.DepositNotification(node, n);
    }
    // One IP update per digest — the fan-out saving extends to the
    // control-plane answer too (§4.6 semantics otherwise unchanged).
    if (p.evaluator != chord::NodeId() && p.evaluator != node.id()) {
      chord::Node* evaluator = ctx.NodeById(p.evaluator);
      if (evaluator != nullptr && evaluator->alive()) {
        auto up = std::make_shared<IpUpdatePayload>();
        up->subscriber_key = node.key();
        up->node = node.id();
        up->ip = node.ip();
        chord::AppMessage out;
        out.target = p.evaluator;
        out.cls = sim::MsgClass::kControl;
        out.payload = std::move(up);
        ctx.TransmitMessage(node, p.evaluator, std::move(out));
      }
    }
  } else {
    // Subscriber off-line: store the whole digest under its identifier;
    // the Chord key transfer hands it back on reconnection (§4.6).
    node.store().Put(HashKey(p.subscriber_key), msg.payload);
  }
}

void HandleIpUpdate(ProtocolContext& ctx, chord::Node& node,
                    const chord::AppMessage& msg) {
  const auto& p = *static_cast<const IpUpdatePayload*>(msg.payload.get());
  chord::Node* subscriber = ctx.NodeById(p.node);
  if (subscriber == nullptr) return;
  ctx.StateOf(node).subscriber.subscriber_addr[p.subscriber_key] = {
      subscriber, p.ip};
}

}  // namespace contjoin::core::subscriber
