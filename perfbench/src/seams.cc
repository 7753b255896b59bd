#include "seams.h"

#include <utility>

#include "core/messages.h"

namespace perfbench {

SpanKind RoleOf(const chord::AppMessage& msg) {
  const auto* base = dynamic_cast<const core::CqPayload*>(msg.payload.get());
  if (base == nullptr) return SpanKind::kOtherRole;
  switch (base->type) {
    case core::CqMsgType::kQueryIndex:
    case core::CqMsgType::kTupleAl:
    case core::CqMsgType::kJfrtAck:
    case core::CqMsgType::kMigrateCmd:
    case core::CqMsgType::kAdaptReplicate:
      return SpanKind::kRewriter;
    case core::CqMsgType::kUnsubscribe:
      return static_cast<const core::UnsubscribePayload*>(base)->at_evaluator
                 ? SpanKind::kEvaluator
                 : SpanKind::kRewriter;
    case core::CqMsgType::kTupleVl:
    case core::CqMsgType::kJoin:
    case core::CqMsgType::kDaivJoin:
    case core::CqMsgType::kAdaptSplit:
      return SpanKind::kEvaluator;
    case core::CqMsgType::kNotification:
    case core::CqMsgType::kNotificationDigest:
    case core::CqMsgType::kIpUpdate:
      return SpanKind::kSubscriber;
    case core::CqMsgType::kDeliveryAck:
      return SpanKind::kReliability;
    case core::CqMsgType::kMwQueryIndex:
    case core::CqMsgType::kMwJoin:
    case core::CqMsgType::kOtjScan:
    case core::CqMsgType::kOtjRehash:
      return SpanKind::kOtherRole;
  }
  return SpanKind::kOtherRole;
}

void TracingApp::HandleMessage(chord::Node& node,
                               const chord::AppMessage& msg) {
  ScopedSpan span(RoleOf(msg));
  engine_->HandleMessage(node, msg);
}

void TracingApp::HandleStoredItems(chord::Node& node, const chord::NodeId& key,
                                   std::vector<chord::PayloadPtr> items) {
  ScopedSpan span(SpanKind::kSubscriber);
  engine_->HandleStoredItems(node, key, std::move(items));
}

void TracingTransport::SendHop(chord::Node* from, const chord::NodeId& to,
                               chord::HopFrame frame) {
  frames_.fetch_add(1, std::memory_order_relaxed);
  messages_.fetch_add(frame.msgs.size(), std::memory_order_relaxed);
  if (sample_cap_ > 0) {
    ExcludedRegion bookkeeping;
    std::lock_guard<std::mutex> lock(sample_mu_);
    if (sample_.size() < sample_cap_) sample_.push_back(frame);
  }
  ScopedSpan span(SpanKind::kHop);
  network_->sim_transport()->SendHop(from, to, std::move(frame));
}

std::vector<chord::HopFrame> TracingTransport::TakeSample() {
  std::lock_guard<std::mutex> lock(sample_mu_);
  return std::move(sample_);
}

SeamTracing::SeamTracing(core::ContinuousQueryNetwork* engine,
                         size_t sample_frames)
    : engine_(engine),
      app_(engine),
      transport_(engine->network(), sample_frames) {
  for (size_t i = 0; i < engine_->num_nodes(); ++i) {
    engine_->node(i)->set_app(&app_);
  }
  engine_->network()->set_transport(&transport_);
}

SeamTracing::~SeamTracing() {
  for (size_t i = 0; i < engine_->num_nodes(); ++i) {
    engine_->node(i)->set_app(engine_);
  }
  engine_->network()->set_transport(nullptr);
}

}  // namespace perfbench
