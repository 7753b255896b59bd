#include "core/reliability.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/state.h"

namespace contjoin::core {
namespace reliability {
namespace {

void OnTimeout(ProtocolContext& ctx, chord::Node& node, uint64_t id);

void ScheduleRetry(ProtocolContext& ctx, chord::Node& node, uint64_t id,
                   int attempt, sim::CancelToken cancel) {
  uint64_t scale = std::max<uint64_t>(1, ctx.options().chord.hop_latency);
  // Exponential backoff, shift-capped so pathological max_retries settings
  // cannot overflow the virtual clock.
  int shift = std::min(attempt - 1, 20);
  sim::SimTime timeout = ctx.options().reliability.base_timeout * scale
                         << shift;
  ctx.ScheduleAfterCancellable(
      node, timeout, std::move(cancel),
      [ctx_ptr = &ctx, node_ptr = &node, id]() {
        OnTimeout(*ctx_ptr, *node_ptr, id);
      });
}

/// Upper bound on how long after first delivery any retransmission of the
/// same id can still arrive: the sum of every backoff interval the origin
/// may wait through, plus slack for routing latency. Past this, the dedup
/// entry can never suppress anything again and is safe to retire.
sim::SimTime SeenRetireHorizon(const ProtocolContext& ctx) {
  uint64_t scale = std::max<uint64_t>(1, ctx.options().chord.hop_latency);
  const sim::SimTime base = ctx.options().reliability.base_timeout * scale;
  sim::SimTime horizon = base;  // Routing-latency slack.
  const int last_attempt = ctx.options().reliability.max_retries + 1;
  for (int a = 1; a <= last_attempt; ++a) {
    horizon += base << std::min(a - 1, 20);
  }
  return horizon;
}

void OnTimeout(ProtocolContext& ctx, chord::Node& node, uint64_t id) {
  NodeState& ns = ctx.StateOf(node);
  auto it = ns.reliability.pending.find(id);
  if (it == ns.reliability.pending.end()) return;  // Acked meanwhile.
  if (!node.alive()) {
    // The origin itself is gone; its durable logs, not this timer, are
    // what resurrects the intent.
    ns.reliability.pending.erase(it);
    return;
  }
  if (it->second.attempts >= ctx.options().reliability.max_retries) {
    ++ns.metrics.reliable_abandoned;
    ns.reliability.pending.erase(it);
    return;
  }
  ++it->second.attempts;
  ++ns.metrics.reliable_retries;
  const int next_attempt = it->second.attempts + 1;
  sim::CancelToken cancel = it->second.cancel;
  // Send may deliver synchronously when this node now owns the target key
  // (e.g. after ring repair); the self-delivery path erases the pending
  // entry in place, so nothing of `it` survives the call.
  ctx.Send(node, it->second.msg);
  if (ns.reliability.pending.count(id) != 0) {
    ScheduleRetry(ctx, node, id, next_attempt, std::move(cancel));
  }
}

}  // namespace

bool IsCritical(CqMsgType type) {
  switch (type) {
    case CqMsgType::kQueryIndex:
    case CqMsgType::kTupleAl:
    case CqMsgType::kTupleVl:
    case CqMsgType::kJoin:
    case CqMsgType::kDaivJoin:
    case CqMsgType::kNotification:
    case CqMsgType::kNotificationDigest:
    case CqMsgType::kAdaptSplit:
    case CqMsgType::kMigrateBucket:
    case CqMsgType::kMovedPointer:
    case CqMsgType::kUnsubscribe:
      return true;
    default:
      return false;
  }
}

void Arm(ProtocolContext& ctx, chord::Node& from, chord::AppMessage& msg) {
  msg.reliable_id = ctx.NextReliableId(from);
  msg.reliable_origin = from.id();
  NodeState& ns = ctx.StateOf(from);
  sim::CancelToken cancel = sim::MakeCancelToken();
  ns.reliability.pending.emplace(msg.reliable_id,
                                 PendingSend{msg, 0, cancel});
  ++ns.metrics.reliable_sent;
  ScheduleRetry(ctx, from, msg.reliable_id, 1, std::move(cancel));
}

void SendReliable(ProtocolContext& ctx, chord::Node& from,
                  chord::AppMessage msg) {
  const auto* payload = static_cast<const CqPayload*>(msg.payload.get());
  if (ctx.options().reliability.enabled && payload != nullptr &&
      IsCritical(payload->type)) {
    Arm(ctx, from, msg);
  }
  ctx.Send(from, std::move(msg));
}

void ArmAll(ProtocolContext& ctx, chord::Node& from,
            std::vector<chord::AppMessage>& msgs) {
  if (!ctx.options().reliability.enabled) return;
  for (chord::AppMessage& msg : msgs) {
    const auto* payload = static_cast<const CqPayload*>(msg.payload.get());
    if (payload != nullptr && IsCritical(payload->type)) {
      Arm(ctx, from, msg);
    }
  }
}

bool ObserveDelivery(ProtocolContext& ctx, chord::Node& node,
                     const chord::AppMessage& msg) {
  NodeState& ns = ctx.StateOf(node);
  if (msg.reliable_origin == node.id()) {
    // Delivered back at the origin (it owns the target key): confirm
    // in place, no ack traffic.
    ns.reliability.pending.erase(msg.reliable_id);
  } else {
    // Resolve the origin by identifier at ack time: under churn the node
    // that armed the message may have crashed since, and a raw pointer
    // captured at send time would now be dangling.
    chord::Node* origin = ctx.NodeById(msg.reliable_origin);
    if (origin != nullptr && origin->alive()) {
      auto ack = std::make_shared<DeliveryAckPayload>();
      ack->msg_id = msg.reliable_id;
      chord::AppMessage out;
      out.target = origin->id();
      out.cls = sim::MsgClass::kControl;
      out.payload = std::move(ack);
      ++ns.metrics.reliable_acks_sent;
      // One direct hop back: the receiver learned the origin's address
      // from the message. The ack itself is best-effort — a lost ack only
      // causes a retry, which this dedup set absorbs.
      ctx.TransmitMessage(node, origin->id(), std::move(out));
    }
  }
  if (!ns.reliability.seen.insert(msg.reliable_id).second) {
    ++ns.metrics.reliable_dups_suppressed;
    return true;
  }
  ns.reliability.seen_by_time.emplace_back(ctx.now(), msg.reliable_id);
  // Retire dedup entries whose origin's retry window has certainly lapsed;
  // this bounds the set by the id-arrival rate times the horizon instead
  // of growing one entry per critical message forever.
  const sim::SimTime horizon = SeenRetireHorizon(ctx);
  while (!ns.reliability.seen_by_time.empty() &&
         ns.reliability.seen_by_time.front().first + horizon <
             static_cast<sim::SimTime>(ctx.now())) {
    ns.reliability.seen.erase(ns.reliability.seen_by_time.front().second);
    ns.reliability.seen_by_time.pop_front();
  }
  return false;
}

void HandleDeliveryAck(ProtocolContext& ctx, chord::Node& node,
                       const chord::AppMessage& msg) {
  const auto& p = static_cast<const DeliveryAckPayload&>(*msg.payload);
  ctx.StateOf(node).reliability.pending.erase(p.msg_id);
}

void RetransmitPending(ProtocolContext& ctx, chord::Node& node) {
  if (!ctx.options().reliability.enabled) return;
  NodeState& ns = ctx.StateOf(node);
  // Snapshot the ids first: after repair this node may own a target key
  // itself, making Send deliver synchronously and erase the pending entry
  // mid-loop — live iterators and references would dangle.
  std::vector<uint64_t> ids;
  ids.reserve(ns.reliability.pending.size());
  for (const auto& [id, pending] : ns.reliability.pending) ids.push_back(id);
  for (uint64_t id : ids) {
    auto it = ns.reliability.pending.find(id);
    if (it == ns.reliability.pending.end()) continue;
    // Kill the old backoff timer and rearm from a fresh token; the
    // retransmission still counts against max_retries so a permanently
    // undeliverable message is abandoned on the usual schedule.
    if (it->second.cancel != nullptr) {
      it->second.cancel->store(true, std::memory_order_release);
    }
    it->second.cancel = sim::MakeCancelToken();
    ++it->second.attempts;
    ++ns.metrics.reliable_retries;
    const int next_attempt = it->second.attempts + 1;
    sim::CancelToken cancel = it->second.cancel;
    ctx.Send(node, it->second.msg);
    if (ns.reliability.pending.count(id) != 0) {
      ScheduleRetry(ctx, node, id, next_attempt, std::move(cancel));
    }
  }
}

}  // namespace reliability
}  // namespace contjoin::core
