#include "core/dispatch.h"

#include "common/logging.h"
#include "core/adapt_protocol.h"
#include "core/evaluator.h"
#include "core/mw_protocol.h"
#include "core/otj_protocol.h"
#include "core/reliability.h"
#include "core/rewriter.h"
#include "core/state.h"
#include "core/subscriber.h"

namespace contjoin::core {

// contjoin-check: hot
bool MessageDispatcher::Dispatch(ProtocolContext& ctx, chord::Node& node,
                                 const chord::AppMessage& msg) const {
  const auto* base = static_cast<const CqPayload*>(msg.payload.get());
  if (base == nullptr) return false;
  if (evaluator::RerouteIfStale(ctx, node, msg)) return true;
  if (msg.reliable_id != 0 &&
      reliability::ObserveDelivery(ctx, node, msg)) {
    return true;  // Duplicate delivery: acked again, handler suppressed.
  }
  size_t index = static_cast<size_t>(base->type);
  if (index >= handlers_.size() || handlers_[index] == nullptr) {
    ++ctx.StateOf(node).metrics.msgs_unhandled;
    return false;
  }
  ++ctx.StateOf(node).metrics.received_by_type[index];
  handlers_[index](ctx, node, msg);
  return true;
}

const MessageDispatcher& MessageDispatcher::Default() {
  static const MessageDispatcher table = [] {
    MessageDispatcher t;
    // Register refuses duplicates; a false return here is a wiring bug.
    CJ_CHECK(t.Register(CqMsgType::kQueryIndex, rewriter::HandleQueryIndex));
    CJ_CHECK(t.Register(CqMsgType::kTupleAl, rewriter::HandleTupleAl));
    CJ_CHECK(t.Register(CqMsgType::kTupleVl, evaluator::HandleTupleVl));
    CJ_CHECK(t.Register(CqMsgType::kJoin, evaluator::HandleJoin));
    CJ_CHECK(t.Register(CqMsgType::kDaivJoin, evaluator::HandleDaivJoin));
    CJ_CHECK(
        t.Register(CqMsgType::kNotification, subscriber::HandleNotification));
    CJ_CHECK(t.Register(CqMsgType::kUnsubscribe, rewriter::HandleUnsubscribe));
    CJ_CHECK(t.Register(CqMsgType::kIpUpdate, subscriber::HandleIpUpdate));
    CJ_CHECK(t.Register(CqMsgType::kJfrtAck, rewriter::HandleJfrtAck));
    CJ_CHECK(t.Register(CqMsgType::kMigrateCmd, rewriter::HandleMigrateCmd));
    CJ_CHECK(t.Register(CqMsgType::kMigrateBucket,
                        rewriter::HandleMigrateBucket));
    CJ_CHECK(
        t.Register(CqMsgType::kMovedPointer, rewriter::HandleMovedPointer));
    CJ_CHECK(t.Register(CqMsgType::kMwQueryIndex, mw::HandleQueryIndex));
    CJ_CHECK(t.Register(CqMsgType::kMwJoin, mw::HandleJoin));
    CJ_CHECK(t.Register(CqMsgType::kOtjScan, otj::HandleScan));
    CJ_CHECK(t.Register(CqMsgType::kOtjRehash, otj::HandleRehash));
    CJ_CHECK(t.Register(CqMsgType::kOtjResult, otj::HandleResult));
    CJ_CHECK(t.Register(CqMsgType::kDeliveryAck,
                        reliability::HandleDeliveryAck));
    CJ_CHECK(t.Register(CqMsgType::kNotificationDigest,
                        subscriber::HandleNotificationDigest));
    CJ_CHECK(t.Register(CqMsgType::kAdaptReplicate, adapt::HandleReplicate));
    CJ_CHECK(t.Register(CqMsgType::kAdaptSplit, adapt::HandleSplit));
    return t;
  }();
  return table;
}

}  // namespace contjoin::core
