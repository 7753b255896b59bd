// Regression tests for the two long-run reliability bugs: the receiver-side
// dedup set growing without bound over streamed runs, and the ack path
// dereferencing a send-time origin pointer that churn may have invalidated.
// Unit tests drive reliability:: through a mock ProtocolContext with a real
// node table; the integration test streams a long run through the engine
// and checks the dedup footprint stays bounded while churn crashes origins.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chord/node.h"
#include "chord/types.h"
#include "common/rng.h"
#include "core/algorithm.h"
#include "core/context.h"
#include "core/dispatch.h"
#include "core/engine.h"
#include "core/messages.h"
#include "core/reliability.h"
#include "core/state.h"
#include "faults/churn.h"
#include "workload/driver.h"

namespace contjoin::core {
namespace {

/// ProtocolContext with a real id->node table, recorded sends and a
/// controllable clock — the seams reliability:: needs, nothing more.
class ReliabilityMockContext : public ProtocolContext {
 public:
  explicit ReliabilityMockContext(Options options)
      : options_(std::move(options)), rng_(options_.seed) {}

  const Options& options() const override { return options_; }
  const AlgorithmStrategy& strategy() const override {
    return AlgorithmStrategy::For(options_.algorithm);
  }
  rel::Catalog& GetCatalog() override { return catalog_; }
  Rng& GetRng() override { return rng_; }
  rel::Timestamp now() const override { return now_time; }

  NodeState& StateOf(chord::Node& node) override {
    auto it = states_.find(&node);
    if (it == states_.end()) {
      it = states_
               .emplace(&node,
                        std::make_unique<NodeState>(options_.jfrt_capacity))
               .first;
    }
    return *it->second;
  }

  void Send(chord::Node&, chord::AppMessage msg) override {
    sent.push_back(std::move(msg));
  }
  void Multisend(chord::Node&, std::vector<chord::AppMessage> msgs,
                 sim::MsgClass) override {
    for (auto& m : msgs) sent.push_back(std::move(m));
  }
  void TransmitMessage(chord::Node& from, const chord::NodeId& to,
                       chord::AppMessage msg) override {
    transmitted.push_back({&from, to, std::move(msg)});
  }
  void CountHop(sim::MsgClass) override {}
  chord::Node* NodeByKey(const std::string&) override { return nullptr; }
  chord::Node* NodeById(const chord::NodeId& id) override {
    auto it = by_id_.find(id);
    return it == by_id_.end() ? nullptr : it->second;
  }
  void DepositNotification(chord::Node&, Notification) override {}
  void AppendOtjResults(uint64_t, std::vector<Notification>) override {}
  uint64_t NextReliableId(chord::Node&) override {
    return ++next_reliable_id;
  }
  void ScheduleAfter(chord::Node&, sim::SimTime,
                     std::function<void()> fn) override {
    scheduled.push_back(std::move(fn));
  }

  void AddNode(chord::Node* node) { by_id_[node->id()] = node; }
  void RemoveNode(chord::Node* node) { by_id_.erase(node->id()); }

  struct TransmitMessageRecord {
    chord::Node* from;
    chord::NodeId to;
    chord::AppMessage msg;
  };

  rel::Timestamp now_time = 0;
  std::vector<chord::AppMessage> sent;
  std::vector<TransmitMessageRecord> transmitted;
  std::vector<std::function<void()>> scheduled;
  uint64_t next_reliable_id = 0;

 private:
  Options options_;
  rel::Catalog catalog_;
  Rng rng_;
  std::unordered_map<chord::Node*, std::unique_ptr<NodeState>> states_;
  std::map<chord::NodeId, chord::Node*> by_id_;
};

Options ReliableOptions() {
  Options opts;
  opts.reliability.enabled = true;
  opts.reliability.base_timeout = 2;
  opts.reliability.max_retries = 1;
  return opts;
}

chord::AppMessage CriticalMessage() {
  chord::AppMessage msg;
  msg.cls = sim::MsgClass::kQueryIndex;
  msg.payload = std::make_shared<QueryIndexPayload>();
  return msg;
}

// --- Dangling-origin hazard ----------------------------------------------------

TEST(ReliabilityOrigin, AckIsRoutedThroughTheNodeTable) {
  ReliabilityMockContext ctx{ReliableOptions()};
  chord::Node origin(nullptr, "origin", 0, /*serial=*/1);
  chord::Node receiver(nullptr, "receiver", 0, /*serial=*/2);
  origin.SetAliveDirect(true);
  receiver.SetAliveDirect(true);
  ctx.AddNode(&origin);
  ctx.AddNode(&receiver);

  chord::AppMessage msg = CriticalMessage();
  reliability::Arm(ctx, origin, msg);
  ASSERT_NE(msg.reliable_id, 0u);
  EXPECT_EQ(msg.reliable_origin, origin.id());

  EXPECT_FALSE(reliability::ObserveDelivery(ctx, receiver, msg));
  ASSERT_EQ(ctx.transmitted.size(), 1u);
  EXPECT_EQ(ctx.transmitted[0].from, &receiver);
  EXPECT_EQ(ctx.transmitted[0].to, origin.id());
  EXPECT_EQ(ctx.transmitted[0].msg.cls, sim::MsgClass::kControl);
  const auto& ack = static_cast<const DeliveryAckPayload&>(
      *ctx.transmitted[0].msg.payload);
  EXPECT_EQ(ack.msg_id, msg.reliable_id);

  // A retransmission of the same id is suppressed but still acked.
  EXPECT_TRUE(reliability::ObserveDelivery(ctx, receiver, msg));
  EXPECT_EQ(ctx.transmitted.size(), 2u);
}

TEST(ReliabilityOrigin, CrashedOriginGetsNoAckAndNoDereference) {
  ReliabilityMockContext ctx{ReliableOptions()};
  chord::Node origin(nullptr, "origin", 0, /*serial=*/1);
  chord::Node receiver(nullptr, "receiver", 0, /*serial=*/2);
  origin.SetAliveDirect(true);
  receiver.SetAliveDirect(true);
  ctx.AddNode(&origin);
  ctx.AddNode(&receiver);

  chord::AppMessage msg = CriticalMessage();
  reliability::Arm(ctx, origin, msg);
  // The origin crashes between send and delivery.
  origin.SetAliveDirect(false);

  EXPECT_FALSE(reliability::ObserveDelivery(ctx, receiver, msg));
  EXPECT_TRUE(ctx.transmitted.empty());  // No ack to a dead node.
  // The message itself was still processed (dedup records it).
  EXPECT_TRUE(reliability::ObserveDelivery(ctx, receiver, msg));
}

TEST(ReliabilityOrigin, DepartedOriginGetsNoAckAndNoDereference) {
  ReliabilityMockContext ctx{ReliableOptions()};
  chord::Node origin(nullptr, "origin", 0, /*serial=*/1);
  chord::Node receiver(nullptr, "receiver", 0, /*serial=*/2);
  origin.SetAliveDirect(true);
  receiver.SetAliveDirect(true);
  ctx.AddNode(&origin);
  ctx.AddNode(&receiver);

  chord::AppMessage msg = CriticalMessage();
  reliability::Arm(ctx, origin, msg);
  // The origin leaves the overlay entirely: the id no longer resolves —
  // exactly the case where a send-time pointer would now dangle.
  ctx.RemoveNode(&origin);

  EXPECT_FALSE(reliability::ObserveDelivery(ctx, receiver, msg));
  EXPECT_TRUE(ctx.transmitted.empty());
}

TEST(ReliabilityOrigin, SelfDeliveryConfirmsInPlaceWithoutAckTraffic) {
  ReliabilityMockContext ctx{ReliableOptions()};
  chord::Node origin(nullptr, "origin", 0, /*serial=*/1);
  origin.SetAliveDirect(true);
  ctx.AddNode(&origin);

  chord::AppMessage msg = CriticalMessage();
  reliability::Arm(ctx, origin, msg);
  EXPECT_EQ(ctx.StateOf(origin).reliability.pending.size(), 1u);

  EXPECT_FALSE(reliability::ObserveDelivery(ctx, origin, msg));
  EXPECT_TRUE(ctx.transmitted.empty());
  EXPECT_TRUE(ctx.StateOf(origin).reliability.pending.empty());
}

// --- Bounded dedup set ---------------------------------------------------------

// --- Stale join-fingers entries -------------------------------------------------

// A join that reaches a node through a stale JFRT entry is re-routed before
// any reliable-delivery bookkeeping: the forwarding node neither acks nor
// records the id, so the origin keeps its retry armed until the true
// evaluator acks the re-routed copy (same id, now asking for a JFRT ack).
TEST(ReliabilityStaleJfrt, ForwardingNodeNeitherAcksNorDedups) {
  ReliabilityMockContext ctx{ReliableOptions()};
  chord::Node origin(nullptr, "origin", 0, /*serial=*/1);
  chord::Node pred(nullptr, "pred", 0, /*serial=*/2);
  chord::Node stale(nullptr, "stale", 0, /*serial=*/3);
  for (chord::Node* n : {&origin, &pred, &stale}) {
    n->SetAliveDirect(true);
    ctx.AddNode(n);
  }
  stale.SetPredecessorDirect(&pred);

  chord::AppMessage msg;
  msg.target = pred.id();  // Outside (pred, stale]: not stale's to own.
  msg.cls = sim::MsgClass::kRewrittenQuery;
  msg.payload = std::make_shared<JoinPayload>();
  reliability::Arm(ctx, origin, msg);

  EXPECT_TRUE(MessageDispatcher::Default().Dispatch(ctx, stale, msg));
  EXPECT_TRUE(ctx.transmitted.empty()) << "stale node acked a forward";
  EXPECT_TRUE(ctx.StateOf(stale).reliability.seen.empty());
  EXPECT_EQ(ctx.StateOf(stale).metrics.received_by_type[static_cast<size_t>(
                CqMsgType::kJoin)],
            0u);
  ASSERT_EQ(ctx.sent.size(), 1u);
  EXPECT_EQ(ctx.sent[0].target, msg.target);
  EXPECT_EQ(ctx.sent[0].reliable_id, msg.reliable_id);
  EXPECT_EQ(ctx.sent[0].reliable_origin, origin.id());
  EXPECT_TRUE(static_cast<const JoinPayload&>(*ctx.sent[0].payload).want_ack);
  EXPECT_EQ(ctx.StateOf(origin).reliability.pending.count(msg.reliable_id),
            1u);
}

TEST(ReliabilitySeen, DedupSetRetiresLapsedIdsAndStaysBounded) {
  ReliabilityMockContext ctx{ReliableOptions()};
  chord::Node origin(nullptr, "origin", 0, /*serial=*/1);
  chord::Node receiver(nullptr, "receiver", 0, /*serial=*/2);
  origin.SetAliveDirect(true);
  receiver.SetAliveDirect(true);
  ctx.AddNode(&origin);
  ctx.AddNode(&receiver);

  // base_timeout=2, max_retries=1, hop scale 1: the retire horizon is
  // base*(slack + 2^0 + 2^1) = 2*4 = 8 ticks. One fresh id per tick for
  // 1000 ticks must keep the set near the horizon, not near 1000.
  size_t max_seen = 0;
  for (rel::Timestamp t = 0; t < 1000; ++t) {
    ctx.now_time = t;
    chord::AppMessage msg = CriticalMessage();
    reliability::Arm(ctx, origin, msg);
    EXPECT_FALSE(reliability::ObserveDelivery(ctx, receiver, msg));
    const auto& rel_state = ctx.StateOf(receiver).reliability;
    EXPECT_EQ(rel_state.seen.size(), rel_state.seen_by_time.size());
    max_seen = std::max(max_seen, rel_state.seen.size());
  }
  EXPECT_LE(max_seen, 32u);
  EXPECT_GE(max_seen, 1u);
}

TEST(ReliabilitySeen, DedupStillSuppressesWithinTheHorizon) {
  ReliabilityMockContext ctx{ReliableOptions()};
  chord::Node origin(nullptr, "origin", 0, /*serial=*/1);
  chord::Node receiver(nullptr, "receiver", 0, /*serial=*/2);
  origin.SetAliveDirect(true);
  receiver.SetAliveDirect(true);
  ctx.AddNode(&origin);
  ctx.AddNode(&receiver);

  chord::AppMessage msg = CriticalMessage();
  reliability::Arm(ctx, origin, msg);
  ctx.now_time = 0;
  EXPECT_FALSE(reliability::ObserveDelivery(ctx, receiver, msg));
  ctx.now_time = 3;  // Within the 8-tick horizon.
  EXPECT_TRUE(reliability::ObserveDelivery(ctx, receiver, msg));
  EXPECT_EQ(ctx.StateOf(receiver).metrics.reliable_dups_suppressed, 1u);
}

// --- Engine-level long run -----------------------------------------------------

TEST(ReliabilityLongRun, SeenFootprintStaysBoundedUnderChurnedStream) {
  workload::DriverConfig cfg;
  cfg.engine.num_nodes = 24;
  cfg.engine.seed = 11;
  cfg.engine.reliability.enabled = true;
  cfg.engine.reliability.base_timeout = 4;
  cfg.engine.reliability.max_retries = 2;
  cfg.workload.seed = 11;
  cfg.workload.num_relation_pairs = 3;
  cfg.workload.attrs_per_relation = 3;
  cfg.workload.domain = 100;
  workload::ExperimentDriver driver(cfg);
  core::ContinuousQueryNetwork& net = driver.net();

  driver.InstallQueries(20);
  // Crash/join churn while streaming: origins of armed messages die
  // between bursts, exercising the id-based ack path at engine level.
  net.InstallChurnScript(faults::ChurnScript::Alternating(
      net.now() + 50, /*period=*/40, /*crashes=*/4, /*joins=*/3));
  Rng placement(77);
  auto insert_alive = [&]() {
    auto [relation, values] = driver.gen().NextTuple();
    size_t node = placement.NextBelow(net.num_nodes());
    while (!net.node(node)->alive()) node = (node + 1) % net.num_nodes();
    CJ_CHECK(net.InsertTuple(node, relation, std::move(values)).ok());
  };
  for (int burst = 0; burst < 30; ++burst) {
    for (int i = 0; i < 50; ++i) insert_alive();
    size_t total_seen = 0;
    uint64_t critical_delivered = 0;
    for (size_t i = 0; i < net.num_nodes(); ++i) {
      const core::NodeState* state = net.state(i);
      if (state == nullptr) continue;
      EXPECT_EQ(state->reliability.seen.size(),
                state->reliability.seen_by_time.size());
      total_seen += state->reliability.seen.size();
    }
    critical_delivered = net.TotalMetrics().reliable_sent;
    // The dedup footprint must track the retire horizon, not the whole
    // history: allow generous slack over the per-burst message volume but
    // fail the pre-fix behaviour (footprint ~= every id ever delivered).
    if (burst >= 5) {
      EXPECT_LT(total_seen, critical_delivered / 2)
          << "burst " << burst << ": dedup set tracking full history";
    }
  }
  EXPECT_GT(net.TotalMetrics().reliable_sent, 0u);
  EXPECT_GT(driver.DrainNotifications(), 0u);
}

}  // namespace
}  // namespace contjoin::core
